#include "graph/alias_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

// Counts every global allocation in this test binary, so the allocation
// contract of AliasTable::Rebuild can be checked directly.
namespace {
std::atomic<int64_t> g_allocations{0};
}  // namespace

// Out of line, like the deletes below, so GCC does not pair an inlined
// malloc() with an inlined free() and warn about a mismatch that is none.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace actor {
namespace {

TEST(AliasTableTest, EmptyWeightsError) {
  EXPECT_TRUE(AliasTable::Create({}).status().IsInvalidArgument());
}

TEST(AliasTableTest, NegativeWeightError) {
  EXPECT_TRUE(AliasTable::Create({1.0, -0.5}).status().IsInvalidArgument());
}

TEST(AliasTableTest, AllZeroWeightsError) {
  EXPECT_TRUE(AliasTable::Create({0.0, 0.0}).status().IsInvalidArgument());
}

TEST(AliasTableTest, SingleWeightAlwaysSampled) {
  auto table = AliasTable::Create({5.0});
  ASSERT_TRUE(table.ok());
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table->Sample(rng), 0u);
}

TEST(AliasTableTest, ZeroWeightNeverSampled) {
  auto table = AliasTable::Create({1.0, 0.0, 1.0});
  ASSERT_TRUE(table.ok());
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) EXPECT_NE(table->Sample(rng), 1u);
}

TEST(AliasTableTest, ProbabilityAccessor) {
  auto table = AliasTable::Create({1.0, 3.0});
  ASSERT_TRUE(table.ok());
  EXPECT_DOUBLE_EQ(table->Probability(0), 0.25);
  EXPECT_DOUBLE_EQ(table->Probability(1), 0.75);
}

TEST(AliasTableTest, SizeMatches) {
  auto table = AliasTable::Create({1, 2, 3, 4});
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->size(), 4u);
}

class AliasDistributionSweep
    : public ::testing::TestWithParam<std::vector<double>> {};

TEST_P(AliasDistributionSweep, EmpiricalMatchesWeights) {
  const std::vector<double>& weights = GetParam();
  auto table = AliasTable::Create(weights);
  ASSERT_TRUE(table.ok());
  double total = 0.0;
  for (double w : weights) total += w;

  Rng rng(42);
  const int n = 200000;
  std::vector<int> counts(weights.size(), 0);
  for (int i = 0; i < n; ++i) ++counts[table->Sample(rng)];
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double expected = weights[i] / total;
    const double observed = static_cast<double>(counts[i]) / n;
    EXPECT_NEAR(observed, expected, 0.01) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Distributions, AliasDistributionSweep,
    ::testing::Values(std::vector<double>{1.0, 1.0},
                      std::vector<double>{1.0, 2.0, 3.0, 4.0},
                      std::vector<double>{10.0, 0.1},
                      std::vector<double>{0.25, 0.25, 0.25, 0.25},
                      std::vector<double>{5.0, 0.0, 5.0},
                      std::vector<double>{1e-6, 1e6},
                      std::vector<double>(100, 1.0)));

TEST(AliasTableTest, ProbabilitiesSumToOne) {
  auto table = AliasTable::Create({0.3, 2.7, 9.1, 0.01, 4.5});
  ASSERT_TRUE(table.ok());
  double sum = 0.0;
  for (std::size_t i = 0; i < table->size(); ++i) sum += table->Probability(i);
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(AliasTableTest, DeterministicGivenRngSeed) {
  auto table = AliasTable::Create({1.0, 2.0, 3.0});
  ASSERT_TRUE(table.ok());
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table->Sample(a), table->Sample(b));
}

TEST(FastModTest, EqualsRemainder) {
  Rng rng(11);
  for (uint64_t n : {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{101971},
                     uint64_t{0xFFFFFFFF}}) {
    const FastModMagic magic = ComputeFastModMagic(n);
    for (uint64_t x : {uint64_t{0}, uint64_t{1}, n - 1, n, n + 1,
                       ~uint64_t{0}, ~uint64_t{0} - n}) {
      ASSERT_EQ(FastMod(x, magic, n), x % n) << "x=" << x << " n=" << n;
    }
    for (int i = 0; i < 100000; ++i) {
      const uint64_t x = rng.Next();
      ASSERT_EQ(FastMod(x, magic, n), x % n) << "x=" << x << " n=" << n;
    }
  }
  for (int i = 0; i < 100000; ++i) {
    // Random divisors of every magnitude up to 2^32 - 1.
    const uint64_t n = (rng.Next() >> (32 + rng.Uniform(32))) | 1;
    const uint64_t x = rng.Next();
    ASSERT_EQ(FastMod(x, ComputeFastModMagic(n), n), x % n)
        << "x=" << x << " n=" << n;
  }
}

TEST(AliasTableTest, SampleMatchesDivisionFormulaDrawForDraw) {
  // Sample() must consume the RNG exactly as the division-based draw it
  // replaced and return the same index, so trained models keep every bit.
  std::vector<double> weights(101971);
  Rng wrng(5);
  for (double& w : weights) w = wrng.UniformDouble() + 0.01;
  for (std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        weights.size()}) {
    auto table = AliasTable::Create(
        std::vector<double>(weights.begin(), weights.begin() + n));
    ASSERT_TRUE(table.ok());
    Rng old_rng(42 + n);
    Rng new_rng = old_rng;
    for (int k = 0; k < 20000; ++k) {
      const std::size_t i = old_rng.Uniform(n);
      const std::size_t expected = old_rng.UniformDouble() < table->Accept(i)
                                       ? i
                                       : table->Alias(i);
      ASSERT_EQ(table->Sample(new_rng), expected) << "n=" << n << " k=" << k;
    }
    EXPECT_EQ(old_rng.Next(), new_rng.Next());
  }
}

TEST(AliasTableTest, RebuildMatchesCreate) {
  auto rebuilt = AliasTable::Create({5.0, 1.0, 1.0, 0.5});
  ASSERT_TRUE(rebuilt.ok());
  const std::vector<double> weights = {0.3, 2.7, 9.1, 0.01, 4.5, 0.0, 1.0};
  ASSERT_TRUE(rebuilt->Rebuild(weights).ok());
  auto fresh = AliasTable::Create(weights);
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(rebuilt->size(), fresh->size());
  for (std::size_t i = 0; i < fresh->size(); ++i) {
    EXPECT_EQ(rebuilt->Accept(i), fresh->Accept(i)) << i;
    EXPECT_EQ(rebuilt->Alias(i), fresh->Alias(i)) << i;
    EXPECT_EQ(rebuilt->Probability(i), fresh->Probability(i)) << i;
  }
  Rng a(3), b(3);
  for (int k = 0; k < 1000; ++k) {
    EXPECT_EQ(rebuilt->Sample(a), fresh->Sample(b));
  }
}

TEST(AliasTableTest, SteadyStateRebuildDoesNotAllocate) {
  std::vector<double> weights(1000);
  Rng rng(9);
  for (double& w : weights) w = rng.UniformDouble();
  auto table = AliasTable::Create(weights);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(table->Rebuild(weights).ok());  // sizes the scratch once
  for (double& w : weights) w = rng.UniformDouble();
  const int64_t before = g_allocations.load();
  const Status st = table->Rebuild(weights);
  const int64_t allocations = g_allocations.load() - before;
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(allocations, 0);
}

}  // namespace
}  // namespace actor
