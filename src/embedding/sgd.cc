#include "embedding/sgd.h"

#include <algorithm>
#include <array>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace actor {

EdgeSamplingTrainer::EdgeSamplingTrainer(
    const Heterograph* graph, EmbeddingMatrix* center,
    EmbeddingMatrix* context, const TypedNegativeSampler* negative_sampler,
    TrainOptions options)
    : graph_(graph),
      center_(center),
      context_(context),
      negative_sampler_(negative_sampler),
      options_(options) {
  ACTOR_CHECK(graph_ != nullptr && center_ != nullptr && context_ != nullptr &&
              negative_sampler_ != nullptr);
  // num_threads <= 1 is the sequential, bit-deterministic path: ignore any
  // provided pool entirely rather than sharding over its workers (a shared
  // pool from TrainActor may have more workers than this trainer wants).
  if (options_.num_threads > 1) {
    if (options_.pool != nullptr) {
      pool_ = options_.pool;
    } else {
      owned_pool_ = std::make_unique<ThreadPool>(
          static_cast<std::size_t>(options_.num_threads));
      pool_ = owned_pool_.get();
    }
  }
}

EdgeSamplingTrainer::~EdgeSamplingTrainer() = default;

Status EdgeSamplingTrainer::Prepare() {
  if (!graph_->finalized()) {
    return Status::FailedPrecondition("graph must be finalized");
  }
  if (center_->rows() != graph_->num_vertices() ||
      context_->rows() != graph_->num_vertices()) {
    return Status::InvalidArgument(StrPrintf(
        "matrix rows (%d, %d) do not match vertex count %d", center_->rows(),
        context_->rows(), graph_->num_vertices()));
  }
  if (center_->dim() != context_->dim()) {
    return Status::InvalidArgument("center/context dims differ");
  }
  ACTOR_RETURN_NOT_OK(ValidateNegatives(options_.negatives));
  edge_tables_.resize(kNumEdgeTypes);
  for (int e = 0; e < kNumEdgeTypes; ++e) {
    const auto& edges = graph_->edges(static_cast<EdgeType>(e));
    if (edges.size() == 0) continue;
    ACTOR_ASSIGN_OR_RETURN(AliasTable table, AliasTable::Create(edges.weight));
    edge_tables_[e] = std::make_unique<AliasTable>(std::move(table));
  }
  prepared_ = true;
  return Status::OK();
}

Status EdgeSamplingTrainer::TrainEdgeType(EdgeType e, int64_t num_samples,
                                          float lr) {
  if (!prepared_) {
    return Status::FailedPrecondition("call Prepare() before training");
  }
  if (num_samples < 0) {
    return Status::InvalidArgument("num_samples must be >= 0");
  }
  if (edge_tables_[static_cast<int>(e)] == nullptr || num_samples == 0) {
    return Status::OK();  // nothing to train
  }
  const uint64_t step = static_cast<uint64_t>(steps_done_);
  const std::size_t dim = static_cast<std::size_t>(center_->dim());
  if (pool_ == nullptr || pool_->num_threads() == 1) {
    std::vector<float> grad(dim);
    TrainShard(e, num_samples, lr, ShardSeed(options_.seed, step, 0),
               grad.data());
  } else {
    // Per-shard gradient scratch, allocated at the dispatch boundary: the
    // shard bodies themselves are allocation-free (hot-path rule).
    WorkerScratch shard_grad(pool_->num_threads(), dim);
    pool_->ShardedRange(
        0, static_cast<std::size_t>(num_samples),
        [this, e, lr, step, &shard_grad](int shard, std::size_t lo,
                                         std::size_t hi) {
          TrainShard(e, static_cast<int64_t>(hi - lo), lr,
                     ShardSeed(options_.seed, step, shard),
                     shard_grad.slot(static_cast<std::size_t>(shard)));
        });
  }
  steps_done_ += num_samples;
  // HOGWILD updates cannot be checked per-step without serializing the
  // shards; instead sweep both matrices for NaN/inf (and torn padding)
  // after every batch in debug builds.
  ACTOR_DCHECK(center_->DebugValidate());
  ACTOR_DCHECK(context_->DebugValidate());
  return Status::OK();
}

// Runs concurrently on pool workers (the analyzer derives the HOGWILD
// scope from the ShardedRange dispatch): shared row access must go through
// the kernel API or RelaxedLoad/RelaxedStore, and the body is
// allocation-free — `grad` scratch is owned by the dispatch site.
void EdgeSamplingTrainer::TrainShard(EdgeType e, int64_t num_samples,
                                     float lr, uint64_t seed, float* grad) {
  Rng rng(seed);
  const auto& edges = graph_->edges(e);
  const AliasTable& table = *edge_tables_[static_cast<int>(e)];
  const std::size_t dim = static_cast<std::size_t>(center_->dim());

  // Block-wise sampling: draw a block of edges up front and software-
  // prefetch their center/context rows, so the (random, cache-hostile) row
  // accesses of block i overlap with the alias-table draws of block i+1.
  constexpr int64_t kBlock = 64;
  std::array<std::size_t, kBlock> idx_buf;
  for (int64_t base = 0; base < num_samples; base += kBlock) {
    const int64_t block = std::min<int64_t>(kBlock, num_samples - base);
    for (int64_t i = 0; i < block; ++i) {
      const std::size_t idx = table.Sample(rng);
      idx_buf[static_cast<std::size_t>(i)] = idx;
      PrefetchRow(center_->row(edges.src[idx]), dim);
      PrefetchRow(context_->row(edges.dst[idx]), dim);
    }
    for (int64_t i = 0; i < block; ++i) {
      const std::size_t idx = idx_buf[static_cast<std::size_t>(i)];
      const VertexId u = edges.src[idx];
      const VertexId v = edges.dst[idx];
      const VertexType ctx_type = graph_->vertex_type(v);
      NegativeSamplingUpdate(  // Eq. (12)
          center_->row(u), v, options_.negatives, lr, context_, sigmoid_, rng,
          [this, e, ctx_type](Rng& r) {
            return negative_sampler_->Sample(e, ctx_type, r);
          },
          grad);
    }
  }
}

}  // namespace actor
