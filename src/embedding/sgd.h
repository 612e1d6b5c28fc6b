#ifndef ACTOR_EMBEDDING_SGD_H_
#define ACTOR_EMBEDDING_SGD_H_

#include <array>
#include <memory>
#include <vector>

#include "embedding/dirty_rows.h"
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

/// One negative-sampling objective evaluation (Eq. (7)) for a *given*
/// center vector against one positive context vertex plus `negatives`
/// noise vertices.
///
/// Performs the context-side updates of Eqs. (9)-(10) in place —
/// `positive_ctx` is the positive vertex's context row, `context_row(v)`
/// resolves each negative draw's — and *accumulates* the center-side
/// gradient of Eq. (8) into `grad_out` (length dim, caller-zeroed) instead
/// of applying it. This split lets one code path serve the plain per-edge
/// update (apply grad_out to the single center row), the bag-of-words
/// composite update of the intra-record meta-graph (footnote 4; apply
/// grad_out to every member word row), and the sharded trainer (context
/// rows resolved by vertex ownership).
///
/// `sample_negative(rng)` returns a noise vertex id (or kInvalidVertex to
/// skip one draw). Called from every trainer shard: context rows are
/// shared, so they must only be touched through the fused kernels (the
/// analyzer derives this HOGWILD scope from the dispatch call graph).
///
/// The negatives are drawn into a fixed stack array first and the whole
/// step runs as one NegativeSamplingStep kernel call (one per chunk of
/// kMaxStepRows rows when `negatives` is larger). Draws never read rows, so
/// the RNG stream — and, by the kernel's contract, every updated bit — is
/// the same as drawing and updating one negative at a time.
template <typename NegativeFn, typename ContextRowFn>
void NegativeSamplingUpdateRows(const float* center_vec, VertexId positive,
                                float* positive_ctx, std::size_t dim,
                                int negatives, float lr,
                                const SigmoidTable& sigmoid, Rng& rng,
                                NegativeFn&& sample_negative,
                                ContextRowFn&& context_row, float* grad_out) {
  std::array<float*, kMaxStepRows> rows{};
  rows[0] = positive_ctx;  // label 1, Eqs. (8)+(9)
  std::size_t n = 1;
  bool first_positive = true;
  for (int k = 0; k < negatives; ++k) {
    const VertexId neg = sample_negative(rng);
    if (neg == kInvalidVertex || neg == positive) continue;
    rows[n++] = context_row(neg);  // label 0, Eqs. (8)+(10)
    if (n == kMaxStepRows) {
      NegativeSamplingStep(center_vec, rows.data(), n, first_positive, lr,
                           sigmoid, grad_out, dim);
      n = 0;
      first_positive = false;
    }
  }
  if (n > 0) {
    NegativeSamplingStep(center_vec, rows.data(), n, first_positive, lr,
                         sigmoid, grad_out, dim);
  }
}

/// The flat-matrix form: positive and negative context rows all resolve
/// through one EmbeddingMatrix. Delegates to NegativeSamplingUpdateRows, so
/// the sharded trainer — which resolves context rows through vertex
/// ownership (owned shard rows vs the remote-tile cache) — shares the exact
/// arithmetic and RNG-consumption order of this path (bit-identity at
/// shards=1 follows structurally; see docs/sharding.md).
template <typename NegativeFn>
void NegativeSamplingUpdate(const float* center_vec, VertexId positive,
                            int negatives, float lr, EmbeddingMatrix* context,
                            const SigmoidTable& sigmoid, Rng& rng,
                            NegativeFn&& sample_negative, float* grad_out) {
  const std::size_t dim = static_cast<std::size_t>(context->dim());
  NegativeSamplingUpdateRows(
      center_vec, positive, context->row(positive), dim, negatives, lr,
      sigmoid, rng, static_cast<NegativeFn&&>(sample_negative),
      [context](VertexId v) { return context->row(v); }, grad_out);
}

/// Shared options for the edge-sampling trainers.
struct TrainOptions {
  int32_t dim = 32;
  /// K in Eq. (7).
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

  /// Dirty-row tracking for the delta publish path (docs/serving.md).
  /// When non-null, every TrainEdgeType call records the rows it touched —
  /// center rows, positive context rows, and negative draws, one union set
  /// — into this caller-owned set: shard-local sets inside the HOGWILD
  /// region, merged here at the batch barrier (after ShardedRange
  /// returns). Must cover the matrices' rows (Resize) and outlive the
  /// trainer. Null (default) disables tracking at zero cost.
  DirtyRowSet* dirty_rows = nullptr;
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
  /// `dirty` is the shard-local dirty set for this shard (or the merged
  /// set directly on the sequential path); null when tracking is off.
  /// `grad` is caller-owned gradient scratch of length dim() — shard
  /// bodies run on the hot path and must not allocate.
  void TrainShard(EdgeType e, int64_t num_samples, float lr, uint64_t seed,
                  DirtyRowSet* dirty, float* grad);

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
  /// Per-shard dirty scratch, merged into options_.dirty_rows at the
  /// TrainEdgeType barrier (allocation-free at steady state).
  std::vector<DirtyRowSet> shard_dirty_;
};

}  // namespace actor

#endif  // ACTOR_EMBEDDING_SGD_H_
