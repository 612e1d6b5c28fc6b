#include "shard/vertex_partitioner.h"

#include <gtest/gtest.h>

#include <vector>

#include "shard/sharded_edge_store.h"
#include "shard/sharded_matrix.h"

namespace actor {
namespace {

TEST(VertexPartitionerTest, SingleShardAssignsEverythingToZero) {
  VertexPartitioner p(1);
  for (VertexId v = 0; v < 100; ++v) {
    EXPECT_EQ(p.Assign(v), 0);
  }
}

TEST(VertexPartitionerTest, HashIsStableAndInRange) {
  VertexPartitioner p(4);
  std::vector<int> counts(4, 0);
  for (VertexId v = 0; v < 4000; ++v) {
    const int s = p.Assign(v);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    // Stateless: the same id always maps to the same shard.
    EXPECT_EQ(p.Assign(v), s);
    ++counts[static_cast<std::size_t>(s)];
  }
  // SplitMix64 spreads dense ids near-uniformly; no shard may be starved.
  for (int c : counts) EXPECT_GT(c, 4000 / 8);
}

TEST(ShardMapTest, LocalIdsAreDenseAndOrderPreserving) {
  ShardMap map(3);
  VertexPartitioner p(3);
  for (VertexId v = 0; v < 300; ++v) {
    const int owner = p.Assign(v);
    const int32_t local = map.AddVertex(v, owner);
    EXPECT_EQ(map.owner(v), owner);
    EXPECT_EQ(map.local_row(v), local);
    EXPECT_EQ(map.global_id(owner, local), v);
  }
  EXPECT_EQ(map.num_vertices(), 300);
  int32_t total = 0;
  for (int s = 0; s < 3; ++s) {
    total += map.shard_size(s);
    // The order-preserving invariant: each shard's global ids are strictly
    // increasing in local-row order.
    const std::vector<VertexId>& globals = map.globals(s);
    for (std::size_t i = 1; i < globals.size(); ++i) {
      EXPECT_LT(globals[i - 1], globals[i]);
    }
  }
  EXPECT_EQ(total, 300);
}

TEST(ShardedMatrixTest, GatherReassemblesGlobalOrder) {
  const int32_t dim = 8;
  ShardMap map(2);
  VertexPartitioner p(2);
  ShardedEmbeddingMatrix m(2, dim);
  for (VertexId v = 0; v < 50; ++v) {
    const int owner = p.Assign(v);
    map.AddVertex(v, owner);
    const int32_t local = m.AppendRow(owner, nullptr);
    // Stamp each row with its global id so gather order is checkable.
    for (int32_t d = 0; d < dim; ++d) {
      m.shard(owner).row(local)[d] = static_cast<float>(v * dim + d);
    }
  }
  EXPECT_EQ(m.total_rows(), 50);
  const EmbeddingMatrix flat = m.Gather(map);
  ASSERT_EQ(flat.rows(), 50);
  for (VertexId v = 0; v < 50; ++v) {
    for (int32_t d = 0; d < dim; ++d) {
      EXPECT_EQ(flat.row(v)[d], static_cast<float>(v * dim + d));
    }
  }
}

/// Builds a 2-shard map where even ids land on shard 0, odd on shard 1.
ShardMap ParityMap(int n) {
  ShardMap map(2);
  for (VertexId v = 0; v < n; ++v) map.AddVertex(v, v % 2);
  return map;
}

TEST(ShardedEdgeStoreTest, CrossShardEdgesReplicateToBothOwners) {
  ShardMap map = ParityMap(10);
  ShardedEdgeStore store;
  store.Reset(2, 0.01);
  store.Accumulate(0, 2, map);  // within shard 0
  store.Accumulate(1, 3, map);  // within shard 1
  store.Accumulate(0, 1, map);  // cross-shard: replicated to both
  EXPECT_EQ(store.shard(0).size(), 2u);  // {0,2} and {0,1}
  EXPECT_EQ(store.shard(1).size(), 2u);  // {1,3} and {0,1}
  // Replicas counted once: 3 distinct undirected edges.
  EXPECT_EQ(store.SizeUnique(map), 3u);
}

TEST(ShardedEdgeStoreTest, ReplicasDecayAndDropInLockstep) {
  ShardMap map = ParityMap(4);
  ShardedEdgeStore store;
  store.Reset(2, 0.5);
  store.Accumulate(0, 1, map, 1.0);  // cross-shard, weight 1.0
  EXPECT_FALSE(store.empty());
  // One decay tick to 0.6: both replicas still alive.
  store.Decay(0.6);
  EXPECT_EQ(store.shard(0).size(), 1u);
  EXPECT_EQ(store.shard(1).size(), 1u);
  // Next tick pushes 0.6 -> 0.36 below min_weight on both replicas at
  // once — the identical-history property that keeps them consistent.
  store.Decay(0.6);
  EXPECT_EQ(store.shard(0).size(), 0u);
  EXPECT_EQ(store.shard(1).size(), 0u);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.SizeUnique(map), 0u);
}

TEST(ShardedEdgeStoreTest, VersionSumsReplicas) {
  ShardMap map = ParityMap(4);
  ShardedEdgeStore store;
  store.Reset(2, 0.01);
  const uint64_t v0 = store.version();
  store.Accumulate(0, 2, map);  // bumps shard 0 only
  const uint64_t v1 = store.version();
  EXPECT_GT(v1, v0);
  store.Accumulate(0, 1, map);  // bumps both replicas
  EXPECT_GT(store.version(), v1);
}

}  // namespace
}  // namespace actor
