#ifndef ACTOR_SHARD_VERTEX_PARTITIONER_H_
#define ACTOR_SHARD_VERTEX_PARTITIONER_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "util/logging.h"
#include "util/rng.h"

namespace actor {

/// Pure function from vertex id to owner shard: SplitMix64 of the id,
/// modulo the shard count, which spreads hot vertices uniformly regardless
/// of arrival order. Stateless, so the same shard count reproduces the same
/// assignment in every process — the property the multi-process extension
/// relies on (docs/sharding.md).
class VertexPartitioner {
 public:
  VertexPartitioner() = default;
  explicit VertexPartitioner(int num_shards) : num_shards_(num_shards) {
    ACTOR_DCHECK(num_shards >= 1)
        << "num_shards must be >= 1, got " << num_shards;
  }

  int num_shards() const { return num_shards_; }

  /// Owner shard of vertex `v` (dense id).
  int Assign(VertexId v) const {
    ACTOR_DCHECK(v >= 0);
    if (num_shards_ == 1) return 0;
    return static_cast<int>(SplitMix64(static_cast<uint64_t>(v)) %
                            static_cast<uint64_t>(num_shards_));
  }

 private:
  int num_shards_ = 1;
};

/// Explicit tile-ownership map: global vertex id -> (owner shard, local
/// row). The single-machine analogue of DistEmbed's process-grid tile map —
/// every sharded container (ShardedEmbeddingMatrix, ShardedEdgeStore, the
/// per-shard dirty sets) indexes its rows by the local ids recorded here.
///
/// Invariant — *order-preserving local ids*: vertices are registered in
/// global-id order (AddVertex requires global == num_vertices()), and each
/// shard hands out local rows in registration order, so `globals(s)` is
/// strictly increasing. At one shard local ids therefore equal global ids,
/// so the flat layout is the one-shard case of this map.
class ShardMap {
 public:
  /// Where one vertex lives. Owner and local row share a slot, so the
  /// trainer's per-draw routing is one load.
  struct Slot {
    int32_t owner = 0;
    int32_t local = 0;
  };

  ShardMap() : ShardMap(1) {}
  explicit ShardMap(int num_shards)
      : num_shards_(num_shards), globals_(num_shards) {
    ACTOR_DCHECK(num_shards >= 1);
  }

  int num_shards() const { return num_shards_; }
  int32_t num_vertices() const { return static_cast<int32_t>(slots_.size()); }

  /// Registers the next global vertex on `owner`; returns its local row.
  int32_t AddVertex(VertexId global, int owner) {
    ACTOR_DCHECK(global == num_vertices())
        << "vertices must be registered in global-id order: got " << global
        << ", expected " << num_vertices();
    ACTOR_DCHECK(owner >= 0 && owner < num_shards_);
    const int32_t local = static_cast<int32_t>(globals_[owner].size());
    slots_.push_back({owner, local});
    globals_[owner].push_back(global);
    return local;
  }

  const Slot& slot(VertexId v) const {
    ACTOR_DCHECK(v >= 0 && v < num_vertices()) << "vertex " << v;
    return slots_[static_cast<std::size_t>(v)];
  }
  int owner(VertexId v) const { return slot(v).owner; }
  int32_t local_row(VertexId v) const { return slot(v).local; }

  VertexId global_id(int shard, int32_t local) const {
    ACTOR_DCHECK(shard >= 0 && shard < num_shards_);
    ACTOR_DCHECK(local >= 0 &&
                 local < static_cast<int32_t>(globals_[shard].size()));
    return globals_[shard][static_cast<std::size_t>(local)];
  }

  /// Global ids owned by `shard`, in local-row order (strictly increasing).
  const std::vector<VertexId>& globals(int shard) const {
    ACTOR_DCHECK(shard >= 0 && shard < num_shards_);
    return globals_[shard];
  }

  int32_t shard_size(int shard) const {
    ACTOR_DCHECK(shard >= 0 && shard < num_shards_);
    return static_cast<int32_t>(globals_[shard].size());
  }

 private:
  int num_shards_ = 1;
  std::vector<Slot> slots_;                     // global id -> slot
  std::vector<std::vector<VertexId>> globals_;  // shard -> local -> global
};

}  // namespace actor

#endif  // ACTOR_SHARD_VERTEX_PARTITIONER_H_
