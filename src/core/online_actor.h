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
#include "shard/remote_tile_cache.h"
#include "shard/sharded_edge_store.h"
#include "shard/sharded_matrix.h"
#include "shard/vertex_partitioner.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/vec_math.h"

namespace actor {

class ThreadPool;

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

  /// How many shard epochs of the re-embed phase run at once. Each epoch
  /// writes only its own shard's rows, so the result is bit-identical at
  /// every thread count; with num_threads <= 1 (or one shard) the epochs
  /// run sequentially on the ingest thread.
  int num_threads = 1;
  /// Externally-owned persistent worker pool. When null, num_threads > 1
  /// and num_shards > 1 the actor creates its own pool, kept for the
  /// actor's lifetime. The pool must outlive the actor; when
  /// num_threads > 1 its worker count overrides num_threads, and
  /// num_threads <= 1 ignores the pool entirely.
  ThreadPool* pool = nullptr;

  /// When true (default), per-edge-type samplers are cached across batches
  /// and rebuilt in place only when the underlying decayed distribution
  /// actually changed (OnlineEdgeStore::version()). When false, every
  /// batch reconstructs all samplers from scratch — the pre-port behavior,
  /// kept as an A/B lever for bench/online_throughput.
  bool incremental_sampler = true;

  /// When true (default), PublishSnapshot() is a delta publish: only
  /// chunks of the center matrix containing rows dirtied since the last
  /// snapshot are copied, clean chunks and (when no unit was added) the
  /// whole unit catalogue are shared with it (docs/serving.md). When
  /// false, every publish is a full copy — bit-identical snapshot contents
  /// and query results either way (locked in by serve_delta_publish_test);
  /// kept as an A/B lever for bench/query_throughput's publish_cost
  /// section.
  bool delta_publish = true;

  /// Training shards (docs/sharding.md), >= 1. A hash VertexPartitioner
  /// assigns every unit to one shard; each shard holds its own rows and
  /// trains them in its own epoch per edge type, reading cross-shard
  /// context rows from a remote-tile cache refreshed at batch barriers.
  /// Shards partition training only: PublishSnapshot() always emits one
  /// flat snapshot in global-id order. The default, one shard, is the flat
  /// model (local ids equal global ids, no remote rows).
  int num_shards = 1;
};

/// Streaming hierarchical cross-modal embedding: ingests record batches,
/// maintains a decaying co-occurrence graph with a growing unit set
/// (hotspots, words, users), and refreshes the shared embedding space
/// after every batch. Units never seen again fade from the sampling
/// distribution but keep their vectors.
///
/// Each Ingest() runs the cycle described in docs/streaming.md:
///   decay -> resolve units -> accumulate co-occurrences ->
///   incremental sampler rebuild -> per-shard re-embed.
/// The re-embed phase runs one epoch per shard and edge type, dispatched
/// with ThreadPool::ParallelFor when there is a pool; each epoch's RNG
/// stream derives from ShardSeed, and all row arithmetic goes through the
/// runtime-dispatched kernels in util/vec_math.h (so the TSan `relaxed`
/// backend covers the streaming path too).
class OnlineActor {
 public:
  /// Creates an empty model; the first Ingest() bootstraps everything.
  static Result<OnlineActor> Create(OnlineActorOptions options);

  ~OnlineActor();
  OnlineActor(OnlineActor&&) noexcept;
  OnlineActor& operator=(OnlineActor&&) noexcept;

  /// Ingests one batch of tokenized records (ids from a caller-owned,
  /// append-only vocabulary), updates the unit graph, and trains. An empty
  /// batch is a pure-decay tick (a time slice with no observations):
  /// existing edge weights decay, no accumulation happens, and training
  /// runs on the decayed distribution. Uniform decay alone preserves the
  /// sampling distribution, so an edge store's cached samplers are reused
  /// when its decay dropped no edge; a store whose decay dropped an edge
  /// below min_weight bumps version() and its samplers are rebuilt. At the
  /// default decay (0.7) and min_weight (0.05) that is most stores on most
  /// ticks (perfbench counts them as core.decay_tick_rebuilds).
  Status Ingest(const std::vector<TokenizedRecord>& batch);

  /// Number of Ingest() calls so far.
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

  int num_shards() const { return shards_; }
  /// The live tile-ownership map (global id -> owner shard, local row).
  const ShardMap& shard_map() const { return map_; }

  /// The center matrix at one shard, where local ids equal global ids;
  /// with more shards use center_shard() / GatherCenter().
  const EmbeddingMatrix& center() const {
    ACTOR_DCHECK(shards_ == 1) << "center() needs a single shard; use "
                                  "center_shard()/GatherCenter()";
    return center_.shard(0);
  }
  /// Shard `s`'s center / context rows, indexed by shard-local row id.
  const EmbeddingMatrix& center_shard(int s) const {
    return center_.shard(s);
  }
  const EmbeddingMatrix& context_shard(int s) const {
    return context_.shard(s);
  }
  /// Flat copy of the center matrix in global-id order (O(units x dim)).
  EmbeddingMatrix GatherCenter() const { return center_.Gather(map_); }
  /// Distinct remote vertices shard `s`'s tile cache has held (0 until a
  /// cross-shard edge appeared). Test/introspection only.
  std::size_t remote_tile_rows(int s) const { return tiles_[s].size(); }

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
  /// prequential evaluation in bench/streaming_activity.
  double ScoreRecordAgainstUnit(const TokenizedRecord& record,
                                VertexId candidate) const;

  /// Publishes the current model as an immutable ModelSnapshot in
  /// global-id order, at any shard count, and installs it as the actor's
  /// current snapshot (docs/serving.md). With delta_publish (default) the
  /// cost is proportional to the rows the last batches touched — only
  /// 64-row chunks holding a dirty row are copied (from their owning
  /// shards), clean chunks and an unchanged catalogue are shared with the
  /// previous snapshot; with delta_publish=false every publish deep-copies
  /// O(units x dim). When the model version is
  /// unchanged since the last publish (no Ingest() in between) the
  /// already-published snapshot is returned as-is — a no-op publish that
  /// copies nothing. Call from the ingest thread only (the same thread
  /// that calls Ingest()); never concurrently with it.
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
    std::vector<int32_t> candidates;  // shard-local rows
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

  explicit OnlineActor(OnlineActorOptions options);  // out-of-line: pool_

  VertexId AddUnit(VertexType type, std::string name);
  /// Assign-or-spawn for the two hotspot families.
  VertexId ResolveSpatial(const GeoPoint& location);
  VertexId ResolveTemporal(double timestamp);
  VertexId ResolveWord(int32_t word_id);
  VertexId ResolveUser(int64_t user_id);

  void AccumulateEdge(VertexId a, VertexId b);
  void DecayEdges();
  /// The batch cycle's re-embed phase: remote-tile refresh, per-shard
  /// sampler refresh, then one trainer epoch per shard per edge type.
  Status TrainBatch();
  /// Brings samplers_[e][s] up to date with edges_[e].shard(s) (no-op when
  /// the store version matches — e.g. after a pure-decay batch that dropped
  /// no edge of this store). Noise candidates are the shard-owned vertices,
  /// stored as local rows, so every negative draw is a writable local row
  /// with no map lookup (at one shard: every vertex, local == global).
  Status RefreshSamplers(int e, int s);
  /// Shard `s`'s trainer epoch for edge type e: `num_samples` draws from
  /// the shard's own replica store and per-shard RNG stream `seed`; trains
  /// only orientations whose center endpoint it owns, resolves remote
  /// positive-context rows through tiles_[s], and marks `dirty`
  /// (= owned_dirty_[s], exclusively this shard's) with LOCAL row ids.
  /// `grad` is caller-owned gradient scratch of length options_.dim.
  /// Dispatched one shard per pool task; the body is allocation-free.
  void TrainShardEpoch(int e, int s, int64_t num_samples, uint64_t seed,
                       DirtyRowSet* dirty, float* grad);
  /// Recopies every remote endpoint's context row into the owning shards'
  /// tile caches — the batch-barrier tile exchange (docs/sharding.md).
  void RefreshRemoteTiles();
  /// Center row of a global unit id, whichever shard owns it.
  const float* CenterRow(VertexId v) const {
    const ShardMap::Slot& slot = map_.slot(v);
    return center_.shard(slot.owner).row(slot.local);
  }

  OnlineActorOptions options_;
  Rng rng_;
  int64_t batches_ = 0;
  /// Total re-embed SGD steps scheduled so far; the per-(batch, edge type)
  /// component of ShardSeed.
  uint64_t train_steps_ = 0;

  int shards_ = 1;
  VertexPartitioner partitioner_;
  ShardMap map_;

  // Unit catalogue (grows, never shrinks) and per-shard rows.
  OnlineCatalog catalog_;
  std::unordered_map<int64_t, VertexId> user_units_;
  ShardedEmbeddingMatrix center_;
  ShardedEmbeddingMatrix context_;

  // Decaying undirected edge weights per edge type, in per-shard replica
  // stores with incremental sampler maintenance (docs/streaming.md,
  // docs/sharding.md). samplers_[e] holds one cache per shard, each stamped
  // against its own replica store.
  ShardedEdgeStore edges_[kNumEdgeTypes];
  std::vector<SamplerCache> samplers_[kNumEdgeTypes];

  /// Per-shard dirty sets over LOCAL row ids: rows mutated since the last
  /// publish. Marked by AddUnit (ingest thread) and by each shard's
  /// single-writer epoch; cleared by PublishSnapshot.
  std::vector<DirtyRowSet> owned_dirty_;
  /// Per-shard read-only caches of remote vertices' context rows,
  /// refreshed at the batch barrier (RefreshRemoteTiles).
  std::vector<RemoteTileCache> tiles_;

  ThreadPool* pool_ = nullptr;              // null => sequential epochs
  std::unique_ptr<ThreadPool> owned_pool_;  // backs pool_ when not borrowed

  /// Atomic slot for the latest published snapshot. unique_ptr because the
  /// store holds a std::atomic (non-movable) and OnlineActor is movable.
  std::unique_ptr<SnapshotStore> snapshots_;

  SigmoidTable sigmoid_;
};

}  // namespace actor

#endif  // ACTOR_CORE_ONLINE_ACTOR_H_
