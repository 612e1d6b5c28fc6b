#ifndef ACTOR_SHARD_SHARDED_EDGE_STORE_H_
#define ACTOR_SHARD_SHARDED_EDGE_STORE_H_

#include <cstdint>
#include <vector>

#include "core/online_edge_store.h"
#include "graph/types.h"
#include "shard/vertex_partitioner.h"
#include "util/logging.h"

namespace actor {

/// One edge type's decaying edge store, partitioned by vertex ownership:
/// one OnlineEdgeStore per shard, all keyed by *global* vertex ids.
///
/// Routing ("local-write" replication): an edge {a, b} is accumulated into
/// the store of every distinct owner among {owner(a), owner(b)} — one store
/// for within-shard edges, two replicas for cross-shard edges. Each shard
/// trainer then draws from its own store and trains only the orientations
/// whose *center* endpoint it owns, so a cross-shard edge receives its two
/// oriented updates from the two owners — the same 2x per-edge budget a
/// one-shard model spends, split by ownership (docs/sharding.md).
///
/// Replica consistency: both replicas see the identical Accumulate/Decay
/// sequence, so their weights stay bit-equal and they drop on the same
/// Decay tick. SizeUnique() counts cross-shard edges once by attributing
/// each edge to its canonical src's owner.
class ShardedEdgeStore {
 public:
  ShardedEdgeStore() { stores_.resize(1); }

  /// (Re)creates `num_shards` empty stores with the given drop threshold.
  void Reset(int num_shards, double min_weight) {
    ACTOR_DCHECK(num_shards >= 1);
    stores_.clear();
    stores_.resize(static_cast<std::size_t>(num_shards));
    for (OnlineEdgeStore& store : stores_) store.set_min_weight(min_weight);
  }

  int num_shards() const { return static_cast<int>(stores_.size()); }

  OnlineEdgeStore& shard(int s) {
    ACTOR_DCHECK(s >= 0 && s < num_shards()) << "shard " << s;
    return stores_[static_cast<std::size_t>(s)];
  }
  const OnlineEdgeStore& shard(int s) const {
    ACTOR_DCHECK(s >= 0 && s < num_shards()) << "shard " << s;
    return stores_[static_cast<std::size_t>(s)];
  }

  /// Adds `w` to the undirected edge {a, b} in every owner replica.
  void Accumulate(VertexId a, VertexId b, const ShardMap& map,
                  double w = 1.0) {
    const int sa = map.owner(a);
    const int sb = map.owner(b);
    stores_[static_cast<std::size_t>(sa)].Accumulate(a, b, w);
    if (sb != sa) stores_[static_cast<std::size_t>(sb)].Accumulate(a, b, w);
  }

  /// Uniform decay of every replica (factor in (0, 1]; 1 is a no-op).
  void Decay(double factor) {
    for (OnlineEdgeStore& store : stores_) store.Decay(factor);
  }

  /// Sum of per-shard versions — bumps exactly when any replica's sampling
  /// distribution changed, the same contract OnlineEdgeStore::version()
  /// gives per store.
  uint64_t version() const {
    uint64_t v = 0;
    for (const OnlineEdgeStore& store : stores_) v += store.version();
    return v;
  }

  bool empty() const {
    for (const OnlineEdgeStore& store : stores_) {
      if (!store.empty()) return false;
    }
    return true;
  }

  /// Number of distinct live undirected edges: cross-shard replicas are
  /// counted once, attributed to the canonical src endpoint's owner. O(E)
  /// scan — reporting only, never on the train path.
  std::size_t SizeUnique(const ShardMap& map) const {
    std::size_t n = 0;
    for (int s = 0; s < num_shards(); ++s) {
      const OnlineEdgeStore& store = stores_[static_cast<std::size_t>(s)];
      const std::vector<VertexId>& src = store.src();
      for (std::size_t i = 0; i < src.size(); ++i) {
        if (map.owner(src[i]) == s) ++n;
      }
    }
    return n;
  }

 private:
  std::vector<OnlineEdgeStore> stores_;
};

}  // namespace actor

#endif  // ACTOR_SHARD_SHARDED_EDGE_STORE_H_
