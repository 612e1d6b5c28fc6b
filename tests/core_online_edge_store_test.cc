// OnlineEdgeStore: the decaying flat-array co-occurrence store behind
// OnlineActor's streaming pipeline (docs/streaming.md). Positive tests
// cover accumulate/decay/drop/version semantics; death tests prove the
// ACTOR_DCHECK contracts fire in debug builds (sanitize preset).

#include "core/online_edge_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/rng.h"

namespace actor {
namespace {

#define SKIP_WITHOUT_DCHECKS()                                        \
  if (!kDebugChecksEnabled) {                                         \
    GTEST_SKIP() << "ACTOR_DCHECK compiled out (release build); run " \
                    "under the sanitize preset";                      \
  }

/// Number of vertices with at least one live edge.
std::size_t LiveVertices(const OnlineEdgeStore& store) {
  std::size_t live = 0;
  for (VertexId v = 0; v < store.vertex_bound(); ++v) {
    live += store.incident_edges(v) > 0 ? 1 : 0;
  }
  return live;
}

TEST(OnlineEdgeStoreTest, AccumulateMergesDuplicatesEitherOrientation) {
  OnlineEdgeStore store;
  store.Accumulate(3, 7, 1.0);
  store.Accumulate(7, 3, 2.0);  // same undirected edge, flipped
  ASSERT_EQ(store.size(), 1u);
  EXPECT_EQ(store.src()[0], 3);  // canonical orientation src < dst
  EXPECT_EQ(store.dst()[0], 7);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(3, 7), 3.0);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(7, 3), 3.0);
  EXPECT_DOUBLE_EQ(store.total_weight(), 3.0);
  EXPECT_TRUE(store.DebugCheckConsistent());
}

TEST(OnlineEdgeStoreTest, DecayScalesWeightsLazily) {
  OnlineEdgeStore store;
  store.set_min_weight(0.01);
  store.Accumulate(0, 1, 1.0);
  store.Accumulate(1, 2, 4.0);
  store.Decay(0.5);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(1, 2), 2.0);
  // Lazy trick: raw weights are untouched, only the scale moved, so the
  // relative distribution (what the alias table samples) is unchanged.
  EXPECT_DOUBLE_EQ(store.raw_weights()[0], 1.0);
  EXPECT_DOUBLE_EQ(store.raw_weights()[1], 4.0);
  EXPECT_DOUBLE_EQ(store.weight_scale(), 0.5);
  EXPECT_TRUE(store.DebugCheckConsistent(/*after_decay=*/true));
}

TEST(OnlineEdgeStoreTest, PureDecayKeepsVersionStable) {
  OnlineEdgeStore store;
  store.set_min_weight(0.01);
  store.Accumulate(0, 1, 1.0);
  const uint64_t v = store.version();
  store.Decay(0.9);  // nothing drops: samplers stay valid, version holds
  EXPECT_EQ(store.version(), v);
  store.Accumulate(0, 2, 1.0);  // new edge: distribution changed
  EXPECT_GT(store.version(), v);
}

TEST(OnlineEdgeStoreTest, DecayDropsEdgesBelowMinWeightAndFixesDegrees) {
  OnlineEdgeStore store;
  store.set_min_weight(0.5);
  store.Accumulate(0, 1, 1.0);   // dies after one 0.4x decay
  store.Accumulate(1, 2, 10.0);  // survives
  const uint64_t v = store.version();
  store.Decay(0.4);
  EXPECT_GT(store.version(), v);  // drop invalidates cached samplers
  ASSERT_EQ(store.size(), 1u);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(1, 2), 4.0);
  // Vertex 0 lost its only edge: it must have no live edge and a degree of
  // exactly zero, and vertex 1's degree must only count the survivor.
  EXPECT_EQ(store.incident_edges(0), 0u);
  EXPECT_EQ(store.raw_degree(0), 0.0);
  const double deg1 = store.raw_degree(1) * store.weight_scale();
  EXPECT_NEAR(deg1, 4.0, 1e-12);
  EXPECT_TRUE(store.DebugCheckConsistent(/*after_decay=*/true));
}

TEST(OnlineEdgeStoreTest, SwapRemoveKeepsIndexConsistent) {
  OnlineEdgeStore store;
  store.set_min_weight(0.5);
  store.Accumulate(0, 1, 0.6);  // slot 0: drops
  store.Accumulate(2, 3, 9.0);  // slot 1: survives, moves into slot 0
  store.Accumulate(4, 5, 0.6);  // slot 2: drops
  store.Accumulate(6, 7, 9.0);  // slot 3: survives
  store.Decay(0.5);
  ASSERT_EQ(store.size(), 2u);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(2, 3), 4.5);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(6, 7), 4.5);
  // Accumulating into a moved edge must hit its new slot, not a stale one.
  store.Accumulate(2, 3, 1.0);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(2, 3), 5.5);
  EXPECT_TRUE(store.DebugCheckConsistent());
}

TEST(OnlineEdgeStoreTest, FullDrainLeavesCleanEmptyStore) {
  OnlineEdgeStore store;
  store.set_min_weight(0.5);
  store.Accumulate(0, 1, 1.0);
  store.Accumulate(2, 3, 1.0);
  store.Decay(0.1);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(LiveVertices(store), 0u);
  EXPECT_DOUBLE_EQ(store.total_weight(), 0.0);
  // The drained store must accept a fresh stream.
  store.Accumulate(5, 6, 2.0);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(5, 6), 2.0);
  EXPECT_TRUE(store.DebugCheckConsistent());
}

TEST(OnlineEdgeStoreTest, LongDecayStreamRenormalizesWithoutDrift) {
  OnlineEdgeStore store;
  store.set_min_weight(1e-6);
  store.Accumulate(0, 1, 1.0);
  // 0.9^400 ~ 5e-19 would underflow the lazy scale past the renorm
  // threshold several times over; refresh the edge so it never drops.
  for (int i = 0; i < 400; ++i) {
    store.Decay(0.9);
    store.Accumulate(0, 1, 1.0);
  }
  // Fixed point of w' = 0.9 w + 1 is 10; after 400 rounds we are there.
  EXPECT_NEAR(store.EdgeWeight(0, 1), 10.0, 1e-6);
  EXPECT_GE(store.weight_scale(), 1e-9);
  EXPECT_TRUE(store.DebugCheckConsistent());
}

TEST(OnlineEdgeStoreTest, DecayFactorOneIsNoOp) {
  OnlineEdgeStore store;
  store.Accumulate(0, 1, 1.0);
  const uint64_t v = store.version();
  store.Decay(1.0);
  EXPECT_EQ(store.version(), v);
  EXPECT_DOUBLE_EQ(store.EdgeWeight(0, 1), 1.0);
}

// ---------------------------------------------------------------------------
// Property test: random Accumulate/Decay sequences against a std::map model.
// ---------------------------------------------------------------------------

using Pair = std::pair<VertexId, VertexId>;
using Model = std::map<Pair, double>;  // canonical pair -> effective weight

/// Pairs whose home is the last bucket of a 1024-bucket pair index. The
/// index takes its home bucket from the top bits of the hash, so these
/// pairs also home at the last bucket of every smaller table: inserted
/// together, their probe run wraps past the table end at every size the
/// property test reaches.
std::vector<Pair> TailPairs(std::size_t count) {
  OnlineEdgeStore wide;
  for (VertexId v = 1000; wide.DebugIndexProbe(0, 1).buckets < 1024; ++v) {
    wide.Accumulate(v, v + 1, 1.0);
  }
  const std::size_t last = wide.DebugIndexProbe(0, 1).buckets - 1;
  std::vector<Pair> tail;
  for (VertexId a = 0; a < 200 && tail.size() < count; ++a) {
    for (VertexId b = a + 1; b < 200 && tail.size() < count; ++b) {
      if (wide.DebugIndexProbe(a, b).home == last) tail.emplace_back(a, b);
    }
  }
  return tail;
}

/// Compares the store with the model: size, every pair's weight, the
/// total, and each vertex's degree and live incident count.
::testing::AssertionResult MatchesModel(const OnlineEdgeStore& store,
                                        const Model& model,
                                        const std::vector<Pair>& universe,
                                        VertexId max_vertex) {
  if (store.size() != model.size()) {
    return ::testing::AssertionFailure()
           << "size " << store.size() << " vs model " << model.size();
  }
  double total = 0.0;
  std::vector<double> degree(static_cast<std::size_t>(max_vertex) + 1, 0.0);
  std::vector<uint32_t> incident(degree.size(), 0);
  for (const auto& [pair, w] : model) {
    total += w;
    for (const VertexId v : {pair.first, pair.second}) {
      degree[static_cast<std::size_t>(v)] += w;
      ++incident[static_cast<std::size_t>(v)];
    }
  }
  for (const Pair& pair : universe) {
    const auto it = model.find(pair);
    const double want = it == model.end() ? 0.0 : it->second;
    // Every decay factor is a power of two, so the store's raw weights are
    // the model's weights times a power of two, round the same way, and
    // must agree bit for bit.
    if (store.EdgeWeight(pair.first, pair.second) != want ||
        store.EdgeWeight(pair.second, pair.first) != want) {
      return ::testing::AssertionFailure()
             << "edge (" << pair.first << ", " << pair.second << ") weight "
             << store.EdgeWeight(pair.first, pair.second) << " vs model "
             << want;
    }
  }
  if (std::fabs(store.total_weight() - total) > 1e-9 * std::max(1.0, total)) {
    return ::testing::AssertionFailure()
           << "total " << store.total_weight() << " vs model " << total;
  }
  for (VertexId v = 0; v <= max_vertex; ++v) {
    const auto i = static_cast<std::size_t>(v);
    const double d = store.raw_degree(v) * store.weight_scale();
    if (store.incident_edges(v) != incident[i]) {
      return ::testing::AssertionFailure()
             << "vertex " << v << " has " << store.incident_edges(v)
             << " live edges vs model " << incident[i];
    }
    if (incident[i] == 0 ? store.raw_degree(v) != 0.0
                         : std::fabs(d - degree[i]) >
                               1e-9 * std::max(1.0, degree[i])) {
      return ::testing::AssertionFailure()
             << "vertex " << v << " degree " << d << " vs model "
             << degree[i];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(OnlineEdgeStorePropertyTest, RandomAccumulateDecayMatchesMapModel) {
  constexpr double kMinWeight = 0.3;
  const std::vector<Pair> tail = TailPairs(6);
  ASSERT_EQ(tail.size(), 6u);
  // The tail pairs plus every pair of 16 low ids, so the live set grows
  // the index from 16 to 128 buckets and drains back to empty.
  std::vector<Pair> universe = tail;
  for (VertexId a = 0; a < 16; ++a) {
    for (VertexId b = a + 1; b < 16; ++b) universe.emplace_back(a, b);
  }
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());
  VertexId max_vertex = 0;
  for (const Pair& p : universe) max_vertex = std::max(max_vertex, p.second);

  OnlineEdgeStore store;
  store.set_min_weight(kMinWeight);
  Model model;
  Rng rng(20261018);
  const double kWeights[] = {0.5, 0.7, 1.3, 3.1};
  const double kFactors[] = {1.0, 0.5, 0.25, 0.125};
  bool wrapped = false;
  bool renormalized = false;
  int drains = 0;
  std::size_t max_buckets = 0;
  for (int step = 0; step < 4000; ++step) {
    // Phases of 250 steps alternate between filling (95 % accumulates) and
    // thinning (60 %); 1 % of steps drain the store.
    const uint64_t op = rng.Uniform(100);
    if (op < ((step / 250) % 2 == 0 ? 95u : 60u)) {
      // Accumulate, onto a tail pair a third of the time. Every weight is
      // above min_weight, so every live edge stays at or above it and the
      // after-decay floor holds after any step.
      const Pair p = rng.Uniform(3) == 0 ? tail[rng.Uniform(tail.size())]
                                         : universe[rng.Uniform(
                                               universe.size())];
      const double w = kWeights[rng.Uniform(4)];
      if (rng.Uniform(2) == 0) {
        store.Accumulate(p.first, p.second, w);
      } else {
        store.Accumulate(p.second, p.first, w);
      }
      model[p] += w;
    } else {
      // Decay, or a drain, which empties the store: every weight here is
      // below 2^20 * min_weight.
      const bool drain = op == 99;
      const double f = drain ? 1.0 / (1 << 20) : kFactors[rng.Uniform(4)];
      const double scale_before = store.weight_scale();
      store.Decay(f);
      renormalized |= store.weight_scale() > scale_before;
      for (auto it = model.begin(); it != model.end();) {
        it->second *= f;
        it = it->second < kMinWeight ? model.erase(it) : std::next(it);
      }
      if (drain) {
        ++drains;
        ASSERT_TRUE(store.empty());
        ASSERT_EQ(LiveVertices(store), 0u);
        ASSERT_EQ(store.total_weight(), 0.0);
      }
    }
    for (const Pair& p : tail) {
      const OnlineEdgeStore::IndexProbe probe =
          store.DebugIndexProbe(p.first, p.second);
      max_buckets = std::max(max_buckets, probe.buckets);
      wrapped |= probe.bucket != OnlineEdgeStore::kNotIndexed &&
                 probe.bucket < probe.home;
    }
    ASSERT_TRUE(MatchesModel(store, model, universe, max_vertex))
        << "after step " << step;
    ASSERT_TRUE(store.DebugCheckConsistent(/*after_decay=*/true));
  }
  // The sequence must have covered what it is for: a probe run wrapping
  // past the table end (so drops shift keys back across it), growth past
  // the first table, full drains with refills, and renormalization.
  EXPECT_TRUE(wrapped);
  EXPECT_GE(max_buckets, 128u);
  EXPECT_GE(drains, 5);
  EXPECT_TRUE(renormalized);
}

// ---------------------------------------------------------------------------
// Death tests: the DCHECK contracts guarding the streaming invariants.
// ---------------------------------------------------------------------------

TEST(OnlineEdgeStoreDeathTest, SelfLoopAccumulateDies) {
  SKIP_WITHOUT_DCHECKS();
  OnlineEdgeStore store;
  EXPECT_DEATH(store.Accumulate(4, 4, 1.0), "self-loop");
}

TEST(OnlineEdgeStoreDeathTest, NonPositiveWeightDies) {
  SKIP_WITHOUT_DCHECKS();
  OnlineEdgeStore store;
  EXPECT_DEATH(store.Accumulate(0, 1, 0.0), "non-positive edge weight");
}

TEST(OnlineEdgeStoreDeathTest, DecayFactorOutOfRangeDies) {
  SKIP_WITHOUT_DCHECKS();
  OnlineEdgeStore store;
  store.Accumulate(0, 1, 1.0);
  EXPECT_DEATH(store.Decay(0.0), "decay factor");
  EXPECT_DEATH(store.Decay(1.5), "decay factor");
}

TEST(OnlineEdgeStoreDeathTest, NonPositiveMinWeightDies) {
  SKIP_WITHOUT_DCHECKS();
  OnlineEdgeStore store;
  EXPECT_DEATH(store.set_min_weight(0.0), "min_weight");
}

}  // namespace
}  // namespace actor
