#ifndef ACTOR_CORE_ONLINE_ACTOR_H_
#define ACTOR_CORE_ONLINE_ACTOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/online_edge_store.h"
#include "data/record.h"
#include "data/vocabulary.h"
#include "embedding/dirty_rows.h"
#include "embedding/embedding_matrix.h"
#include "graph/alias_table.h"
#include "graph/types.h"
#include "serve/model_snapshot.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/vec_math.h"

namespace actor {

/// Options for the streaming extension (docs/streaming.md; modeled on the
/// recency-aware direction of the authors' ReAct [8], which the paper
/// lists as the online successor of CrossMap).
struct OnlineActorOptions {
  int32_t dim = 32;
  int negatives = 5;
  float learning_rate = 0.02f;
  uint64_t seed = 71;

  /// Per ingested batch, every live edge is sampled this many times in
  /// expectation. The main throughput/quality dial of the streaming path —
  /// see the tuning table in docs/streaming.md.
  double samples_per_edge_per_batch = 3.0;

  /// Recency: every edge weight is multiplied by this factor at each
  /// Ingest() call, so stale co-occurrences fade ("recency-aware"). 1.0
  /// disables forgetting.
  double decay_per_batch = 0.7;
  /// Edges whose decayed weight drops below this are dropped. Must be > 0
  /// when decay_per_batch < 1 (otherwise edges would decay forever without
  /// ever being reclaimed).
  double min_edge_weight = 0.05;

  /// A record farther than this from every spatial hotspot spawns a new
  /// hotspot at its location (km).
  double new_spatial_hotspot_km = 2.0;
  /// A record farther than this (circular hours) from every temporal
  /// hotspot spawns a new one.
  double new_temporal_hotspot_hours = 1.5;

  /// Train user edge types (UT/UW/UL) as in ACTOR's inter structure.
  bool use_user_edges = true;
};

/// Streaming hierarchical cross-modal embedding: ingests record batches,
/// maintains a decaying co-occurrence graph with a growing unit set
/// (hotspots, words, users), and refreshes the shared embedding space
/// after every batch. Units never seen again fade from the sampling
/// distribution but keep their vectors.
///
/// Each Ingest() runs the cycle described in docs/streaming.md:
///   validate -> decay -> resolve units -> accumulate co-occurrences ->
///   incremental sampler rebuild -> re-embed.
/// The re-embed phase runs one epoch per edge type on the ingest thread;
/// each epoch's RNG stream derives from ShardSeed, and all row arithmetic
/// goes through the runtime-dispatched kernels in util/vec_math.h (so the
/// TSan `relaxed` backend covers the streaming path too). Why there is one
/// trainer and no training shards: docs/streaming.md, "Why one shard".
class OnlineActor {
 public:
  /// Creates an empty model; the first Ingest() bootstraps everything.
  static Result<OnlineActor> Create(OnlineActorOptions options);

  /// Ingests one batch of tokenized records (ids from a caller-owned,
  /// append-only vocabulary), updates the unit graph, and trains. A batch
  /// holding a record with a non-finite timestamp or coordinate is
  /// rejected whole with InvalidArgument before anything changes: no
  /// decay, no new unit, no batch counted. An empty batch is a
  /// pure-decay tick (a time slice with no observations):
  /// existing edge weights decay, no accumulation happens, and training
  /// runs on the decayed distribution. Uniform decay alone preserves the
  /// sampling distribution, so an edge store's cached samplers are reused
  /// when its decay dropped no edge; a store whose decay dropped an edge
  /// below min_weight bumps version() and its samplers are rebuilt. At the
  /// default decay (0.7) and min_weight (0.05) that is most stores on most
  /// ticks (perfbench counts them as core.decay_tick_rebuilds).
  Status Ingest(const std::vector<TokenizedRecord>& batch);

  /// Number of accepted Ingest() calls so far.
  int64_t batches_ingested() const { return batches_; }

  int32_t num_units() const {
    return static_cast<int32_t>(catalog_.types.size());
  }
  std::size_t num_live_edges() const;
  std::size_t num_spatial_hotspots() const {
    return catalog_.spatial_centers.size();
  }
  std::size_t num_temporal_hotspots() const {
    return catalog_.temporal_hours.size();
  }

  /// The live center / context rows, indexed by unit id.
  const EmbeddingMatrix& center() const { return center_; }
  const EmbeddingMatrix& context() const { return context_; }

  /// The live unit catalogue; every published snapshot adopts a copy.
  const OnlineCatalog& catalog() const { return catalog_; }
  VertexType unit_type(VertexId v) const { return catalog_.types[v]; }
  const std::string& unit_name(VertexId v) const {
    return catalog_.names[v];
  }

  /// Unit ids for modality values (kInvalidVertex when unseen).
  VertexId SpatialUnit(const GeoPoint& location) const;
  VertexId TemporalUnit(double timestamp) const;
  VertexId WordUnit(int32_t word_id) const;

  /// Cosine score of a record against the current space: mean of its
  /// resolvable unit vectors vs the candidate unit. Used by the
  /// prequential evaluation in bench/streaming_activity. A candidate
  /// outside [0, num_units()) scores -1e9, the same sentinel as a record
  /// with no resolvable unit.
  double ScoreRecordAgainstUnit(const TokenizedRecord& record,
                                VertexId candidate) const;

  /// Publishes the current model as an immutable ModelSnapshot in unit-id
  /// order and installs it as the actor's current snapshot
  /// (docs/serving.md). The first publish copies every row; every later
  /// one is a delta publish whose cost is proportional to the rows the
  /// last batches touched — only 64-row chunks holding a dirty row are
  /// copied, clean chunks and an unchanged catalogue are shared with the
  /// previous snapshot. The result is bit-identical to a full copy (the
  /// serving tests compare the two). When the model version is unchanged
  /// since the last publish (no Ingest() in between) the already-published
  /// snapshot is returned as-is — a no-op publish that copies nothing.
  /// Call from the ingest thread only (the same thread that calls
  /// Ingest()); never concurrently with it.
  /// The snapshot version follows the OnlineEdgeStore::version() scheme:
  /// batches_ingested() plus the sum of the per-edge-type store versions,
  /// so any batch that changed the sampled distribution (and any batch at
  /// all, via the batch count) bumps it monotonically.
  std::shared_ptr<const ModelSnapshot> PublishSnapshot();

  /// Latest published snapshot (null before the first PublishSnapshot()).
  /// Safe from any thread, concurrently with Ingest()/PublishSnapshot():
  /// the slot swap is an atomic shared_ptr operation, and the snapshot
  /// itself is immutable — this is the race-free read path for serving
  /// queries against a live actor (see the tsan-labeled
  /// QueryDuringIngest smoke test).
  std::shared_ptr<const ModelSnapshot> CurrentSnapshot() const;

 private:
  /// Cached per-edge-type samplers, stamped with the store version they
  /// were built at. Rebuilt in place (allocation-free at steady state)
  /// only when the store's relative distribution changed.
  struct NoiseTable {
    std::vector<VertexId> candidates;
    std::vector<double> weights;  // degree^(3/4) scratch for rebuilds
    AliasTable table;
    bool valid = false;
  };
  struct SamplerCache {
    bool built = false;
    uint64_t version = 0;
    AliasTable edge_table;
    NoiseTable noise[kNumVertexTypes];
  };

  explicit OnlineActor(OnlineActorOptions options);

  VertexId AddUnit(VertexType type, std::string name);
  /// Assign-or-spawn for the two hotspot families.
  VertexId ResolveSpatial(const GeoPoint& location);
  VertexId ResolveTemporal(double timestamp);
  VertexId ResolveWord(int32_t word_id);
  VertexId ResolveUser(int64_t user_id);

  void AccumulateEdge(VertexId a, VertexId b);
  void DecayEdges();
  /// The batch cycle's re-embed phase: per-edge-type sampler refresh, then
  /// one trainer epoch per edge type.
  Status TrainBatch();
  /// Brings samplers_[e] up to date with edges_[e] (no-op when the store
  /// version matches — e.g. after a pure-decay batch that dropped no edge
  /// of this store).
  Status RefreshSamplers(int e);
  /// Most steps TrainEpoch puts in one SharedNegativeBlock call: same-type
  /// steps share one draw of negatives per chunk of at most this many
  /// (docs/streaming.md, "Re-embed").
  static constexpr std::size_t kSharedNegativeBlock = 16;
  /// Scratch of the trainer epochs, sized once per TrainBatch:
  /// SharedNegativeBlock's gradients (kSharedNegativeBlock * dim) and
  /// coefficients (kSharedNegativeBlock * (1 + negatives)), and the
  /// shared negative rows of the current chunk (negatives).
  struct EpochScratch {
    std::vector<float> grads;
    std::vector<float> coefs;
    std::vector<float*> negatives;
  };
  /// The trainer epoch for edge type e: `num_samples` draws from the
  /// store's edge sampler with RNG stream `seed`, each training one
  /// orientation of the drawn edge. Within each 64-draw block the steps
  /// are grouped by context-vertex type and trained in shared-negative
  /// chunks of at most kSharedNegativeBlock (docs/streaming.md,
  /// "Re-embed"); every mutated row is marked in dirty_. The body is
  /// allocation-free.
  void TrainEpoch(int e, int64_t num_samples, uint64_t seed,
                  EpochScratch* scratch);

  OnlineActorOptions options_;
  Rng rng_;
  int64_t batches_ = 0;
  /// Total re-embed SGD steps scheduled so far; the per-(batch, edge type)
  /// component of ShardSeed.
  uint64_t train_steps_ = 0;

  // Unit catalogue (grows, never shrinks) and the rows, indexed by unit id.
  OnlineCatalog catalog_;
  std::unordered_map<int64_t, VertexId> user_units_;
  EmbeddingMatrix center_;
  EmbeddingMatrix context_;

  // Decaying undirected edge weights per edge type, with incremental
  // sampler maintenance (docs/streaming.md); samplers_[e] is stamped
  // against edges_[e].version().
  OnlineEdgeStore edges_[kNumEdgeTypes];
  SamplerCache samplers_[kNumEdgeTypes];

  /// Ingest's word units of the record being accumulated; a member so the
  /// per-record loop reuses one buffer.
  std::vector<VertexId> record_words_;

  /// Rows mutated since the last publish. Marked by AddUnit and the
  /// trainer epochs, cleared by PublishSnapshot.
  DirtyRowSet dirty_;

  /// Atomic slot for the latest published snapshot. unique_ptr because the
  /// store holds a std::atomic (non-movable) and OnlineActor is movable.
  std::unique_ptr<SnapshotStore> snapshots_;

  SigmoidTable sigmoid_;
};

}  // namespace actor

#endif  // ACTOR_CORE_ONLINE_ACTOR_H_
