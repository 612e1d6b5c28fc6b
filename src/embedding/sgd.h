#ifndef ACTOR_EMBEDDING_SGD_H_
#define ACTOR_EMBEDDING_SGD_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "embedding/embedding_matrix.h"
#include "embedding/negative_sampler.h"
#include "graph/alias_table.h"
#include "graph/heterograph.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/vec_math.h"

namespace actor {

class ThreadPool;

/// Derives the RNG seed for one trainer shard. Every input is passed
/// through SplitMix64 rounds so shard streams stay uncorrelated across
/// shards, training phases, and epochs — an additive scheme such as
/// `base + step + C * shard` hands xoshiro nearly identical seeds, which
/// its SplitMix64 seeding only partially decorrelates.
inline uint64_t ShardSeed(uint64_t base, uint64_t step, uint64_t shard) {
  uint64_t h = SplitMix64(base);
  h = SplitMix64(h ^ step);
  return SplitMix64(h ^ shard);
}

/// Per-worker scratch of a pool dispatch: `workers` zeroed slots of
/// `floats` floats, each starting on its own 64-byte cache line and padded
/// to whole lines, so workers writing their own slots never share a line
/// (no false sharing between adjacent workers). Allocate it at the dispatch
/// boundary; shard bodies only call slot().
class WorkerScratch {
 public:
  static constexpr std::size_t kLineBytes = 64;
  static constexpr std::size_t kLineFloats = kLineBytes / sizeof(float);

  WorkerScratch(std::size_t workers, std::size_t floats)
      : stride_((floats + kLineFloats - 1) / kLineFloats * kLineFloats),
        storage_(workers * stride_ + kLineFloats - 1) {
    const auto addr = reinterpret_cast<std::uintptr_t>(storage_.data());
    base_ = storage_.data() +
            (kLineBytes - addr % kLineBytes) % kLineBytes / sizeof(float);
  }
  WorkerScratch(const WorkerScratch&) = delete;
  WorkerScratch& operator=(const WorkerScratch&) = delete;

  float* slot(std::size_t worker) { return base_ + worker * stride_; }

 private:
  std::size_t stride_;
  std::vector<float> storage_;
  float* base_ = nullptr;
};

/// Most negatives one NegativeSamplingUpdate step draws (K in Eq. (7)).
/// The step keeps its rows on the stack, so every batch trainer rejects a
/// larger K with InvalidArgument (ValidateNegatives).
inline constexpr int kMaxNegatives = 64;

/// OK when `negatives` is a K that NegativeSamplingUpdate can take.
inline Status ValidateNegatives(int negatives) {
  if (negatives < 0 || negatives > kMaxNegatives) {
    return Status::InvalidArgument("negatives must be in [0, " +
                                   std::to_string(kMaxNegatives) + "]");
  }
  return Status::OK();
}

/// One negative-sampling SGD step (Eq. (7), updates of Eqs. (8)-(10)) of
/// the `center` row against one positive context vertex plus `negatives`
/// (at most kMaxNegatives) noise draws: one SharedNegativeBlock call with
/// n_steps == 1. The context rows and `center` are updated in place;
/// `grads` (dim floats) receives the center gradient of Eq. (8), already
/// added to `center`. A bag-of-words step (footnote 4) passes a scratch
/// composite as `center` and adds `grads` to every member word row.
///
/// `sample_negative(rng)` returns a noise vertex id (or kInvalidVertex to
/// skip one draw); a draw equal to the positive is skipped too. A step
/// whose draws leave no negative passes the positive row as its one
/// negative, which the kernel zeroes, so the positive still trains. Called
/// from every trainer shard: context rows are shared, so they must only be
/// touched through the kernels (the analyzer derives this HOGWILD scope
/// from the dispatch call graph). `center` must not be a context row.
template <typename NegativeFn>
void NegativeSamplingUpdate(float* center, VertexId positive, int negatives,
                            float lr, EmbeddingMatrix* context,
                            const SigmoidTable& sigmoid, Rng& rng,
                            NegativeFn&& sample_negative, float* grads) {
  ACTOR_DCHECK(negatives <= kMaxNegatives);
  float* pos_row = context->row(positive);  // label 1, Eqs. (8)+(9)
  std::array<float*, kMaxNegatives> rows;
  std::size_t n = 0;
  for (int k = 0; k < negatives; ++k) {
    const VertexId neg = sample_negative(rng);
    if (neg == kInvalidVertex || neg == positive) continue;
    rows[n++] = context->row(neg);  // label 0, Eqs. (8)+(10)
  }
  if (n == 0) rows[n++] = pos_row;
  std::array<float, 1 + kMaxNegatives> coefs;
  SharedNegativeBlock(&center, &pos_row, 1, rows.data(), n, lr, sigmoid, grads,
                      coefs.data(), static_cast<std::size_t>(context->dim()));
}

/// Shared options for the edge-sampling trainers.
struct TrainOptions {
  int32_t dim = 32;
  /// K in Eq. (7), at most kMaxNegatives.
  int negatives = 1;
  /// η, the learning rate handed to TrainEdgeType by the caller's schedule.
  float initial_lr = 0.025f;
  int num_threads = 1;
  uint64_t seed = 1;
  /// Externally-owned persistent worker pool. When null and
  /// num_threads > 1 the trainer creates its own pool, kept alive for the
  /// trainer's lifetime — never per TrainEdgeType call. The pool must
  /// outlive the trainer; when num_threads > 1 its worker count overrides
  /// num_threads, and num_threads <= 1 ignores the pool (sequential,
  /// bit-deterministic path).
  ThreadPool* pool = nullptr;
};

/// Asynchronous stochastic gradient trainer over typed edges (paper
/// §5.2.3): edges of a given type are drawn from an alias table, each draw
/// triggering one negative-sampling step. With num_threads > 1 the sample
/// budget is split across threads updating the shared matrices without
/// locks (HOGWILD [45]).
class EdgeSamplingTrainer {
 public:
  /// The graph, matrices, and sampler must outlive the trainer. `center`
  /// and `context` must both have graph.num_vertices() rows of equal dim.
  EdgeSamplingTrainer(const Heterograph* graph, EmbeddingMatrix* center,
                      EmbeddingMatrix* context,
                      const TypedNegativeSampler* negative_sampler,
                      TrainOptions options);

  // Out-of-line: owned_pool_ holds a forward-declared ThreadPool.
  ~EdgeSamplingTrainer();

  /// Builds the per-edge-type alias tables. Must be called once before
  /// TrainEdgeType. Edge types with no edges are skipped silently.
  Status Prepare();

  /// Runs `num_samples` SGD steps on edges of type `e` at learning rate
  /// `lr`, split across the configured threads. Each sampled directed edge
  /// (u -> v) takes u as center and v as context; negatives are drawn from
  /// the typed noise table of (e, type(v)). No-op (OK) when the type has
  /// no edges.
  Status TrainEdgeType(EdgeType e, int64_t num_samples, float lr);

  /// Total SGD steps executed so far.
  int64_t steps_done() const { return steps_done_; }

  const TrainOptions& options() const { return options_; }
  const SigmoidTable& sigmoid() const { return sigmoid_; }

  /// True once Prepare() succeeded.
  bool prepared() const { return prepared_; }

 private:
  /// `grad` is caller-owned gradient scratch of length dim() — shard
  /// bodies run on the hot path and must not allocate.
  void TrainShard(EdgeType e, int64_t num_samples, float lr, uint64_t seed,
                  float* grad);

  const Heterograph* graph_;
  EmbeddingMatrix* center_;
  EmbeddingMatrix* context_;
  const TypedNegativeSampler* negative_sampler_;
  TrainOptions options_;
  SigmoidTable sigmoid_;
  bool prepared_ = false;
  std::vector<std::unique_ptr<AliasTable>> edge_tables_;  // per edge type
  int64_t steps_done_ = 0;
  ThreadPool* pool_ = nullptr;            // null => single-threaded
  std::unique_ptr<ThreadPool> owned_pool_;  // backs pool_ when not borrowed
};

}  // namespace actor

#endif  // ACTOR_EMBEDDING_SGD_H_
