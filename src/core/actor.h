#ifndef ACTOR_CORE_ACTOR_H_
#define ACTOR_CORE_ACTOR_H_

#include <cstdint>

#include "embedding/embedding_matrix.h"
#include "embedding/line.h"
#include "graph/graph_builder.h"
#include "util/result.h"

namespace actor {

class ThreadPool;

/// Hyper-parameters of ACTOR (Algorithm 1). Paper defaults: d = 300,
/// η = 0.02, K = 1, m = 256, MaxEpoch = 100; this library defaults to a
/// laptop-scale d and derives the per-epoch sample budget from the graph
/// size (see samples_per_edge).
struct ActorOptions {
  int32_t dim = 32;
  /// K: number of negative samples per step (Eq. (7)).
  int negatives = 1;
  /// η: learning rate at epoch 0; decays linearly to 1e-3 of itself.
  float initial_lr = 0.02f;
  /// MaxEpoch.
  int epochs = 10;
  /// Across the full run, each directed edge is sampled this many times in
  /// expectation; the per-epoch batch for edge type e is
  /// |E_e| * samples_per_edge / epochs (the paper's fixed batch m plays
  /// the same role).
  int samples_per_edge = 20;
  int num_threads = 1;
  uint64_t seed = 17;

  /// Externally-owned persistent worker pool shared by the LINE
  /// pre-trainer, the edge-sampling trainer, and the record loop. When
  /// null and num_threads > 1, TrainActor creates one pool for the run.
  /// Callers running many configurations back to back (the Fig. 12 thread
  /// sweep, parameter tuning) pass one pool so workers are spawned once
  /// per process instead of once per run. Must outlive the call; when
  /// num_threads > 1 its worker count overrides num_threads, and
  /// num_threads <= 1 ignores the pool (sequential, deterministic run).
  ThreadPool* pool = nullptr;

  /// Inter-record structure (ablation "ACTOR w/o inter" disables): LINE
  /// pre-training of the user interaction graph, user-guided
  /// initialization, and training of M_inter = {UT, UW, UL}.
  bool use_inter = true;
  /// Intra-record bag-of-words structure (ablation "ACTOR w/o intra"
  /// disables): words of a record act as one composite center vector
  /// (footnote 4; realized as the mean for numerical stability — see
  /// DESIGN.md). When false, LW/WT/WW edges train word-by-word.
  bool use_bag_of_words = true;

  /// Initialize activity-graph vertices from the pre-trained user vectors
  /// (Algorithm 1 line 4). Requires use_inter and a non-empty user
  /// interaction graph.
  bool init_from_users = true;

  /// Use the paper's literal *sum* composite for the bag of words
  /// (footnote 4) instead of the mean. The sum saturates the logistic
  /// loss at small d — kept for the design-ablation bench; see DESIGN.md
  /// §2.5.
  bool bow_sum_composite = false;

  /// Sample budget for the LINE pre-training pass on the user graph, as
  /// samples per UU edge.
  int user_pretrain_samples_per_edge = 200;
};

/// Training statistics for the scalability experiments (Fig. 12).
struct ActorStats {
  double pretrain_seconds = 0.0;
  double train_seconds = 0.0;
  int64_t edge_steps = 0;     // plain edge-sampling SGD steps
  int64_t record_steps = 0;   // bag-of-words record steps
};

/// A trained ACTOR model: the center vectors x_i used by downstream tasks
/// and the context vectors x'_i (Algorithm 1, line 12).
struct ActorModel {
  EmbeddingMatrix center;
  EmbeddingMatrix context;
  ActorStats stats;
};

/// Trains ACTOR on built graphs (Algorithm 1, lines 3-12; hotspot
/// detection and graph construction are the caller's lines 1-2 via
/// DetectHotspots/BuildGraphs). Deterministic given options.seed and
/// num_threads == 1.
Result<ActorModel> TrainActor(const BuiltGraphs& graphs,
                              const ActorOptions& options);

}  // namespace actor

#endif  // ACTOR_CORE_ACTOR_H_
