#include "util/vec_math.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace actor {
namespace {

/// Distance in representable floats between a and b (0 = bit-identical).
int64_t UlpDiff(float a, float b) {
  if (a == b) return 0;
  if (std::isnan(a) || std::isnan(b)) return INT64_MAX;
  auto to_ordered = [](float f) -> int64_t {
    const int32_t bits = std::bit_cast<int32_t>(f);
    return bits >= 0 ? bits : INT32_MIN - static_cast<int64_t>(bits);
  };
  const int64_t d = to_ordered(a) - to_ordered(b);
  return d >= 0 ? d : -d;
}

TEST(VecMathTest, DotBasic) {
  const float x[] = {1.0f, 2.0f, 3.0f};
  const float y[] = {4.0f, -5.0f, 6.0f};
  EXPECT_FLOAT_EQ(Dot(x, y, 3), 4.0f - 10.0f + 18.0f);
}

TEST(VecMathTest, DotEmpty) {
  EXPECT_FLOAT_EQ(Dot(nullptr, nullptr, 0), 0.0f);
}

TEST(VecMathTest, AxpyAccumulates) {
  const float x[] = {1.0f, 2.0f};
  float y[] = {10.0f, 20.0f};
  Axpy(2.0f, x, y, 2);
  EXPECT_FLOAT_EQ(y[0], 12.0f);
  EXPECT_FLOAT_EQ(y[1], 24.0f);
}

TEST(VecMathTest, ScaleMultiplies) {
  float x[] = {2.0f, -4.0f};
  Scale(0.5f, x, 2);
  EXPECT_FLOAT_EQ(x[0], 1.0f);
  EXPECT_FLOAT_EQ(x[1], -2.0f);
}

TEST(VecMathTest, CopyAndAddAndZero) {
  const float x[] = {1.0f, 2.0f, 3.0f};
  float out[3];
  Copy(x, out, 3);
  EXPECT_FLOAT_EQ(out[1], 2.0f);
  Add(x, out, 3);
  EXPECT_FLOAT_EQ(out[2], 6.0f);
  Zero(out, 3);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
}

TEST(VecMathTest, Norm2) {
  const float x[] = {3.0f, 4.0f};
  EXPECT_FLOAT_EQ(Norm2(x, 2), 5.0f);
}

TEST(VecMathTest, NormalizeMakesUnit) {
  float x[] = {3.0f, 4.0f};
  NormalizeInPlace(x, 2);
  EXPECT_NEAR(Norm2(x, 2), 1.0f, 1e-6f);
  EXPECT_NEAR(x[0], 0.6f, 1e-6f);
}

TEST(VecMathTest, NormalizeZeroVectorUnchanged) {
  float x[] = {0.0f, 0.0f};
  NormalizeInPlace(x, 2);
  EXPECT_FLOAT_EQ(x[0], 0.0f);
}

TEST(VecMathTest, CosineParallel) {
  const float x[] = {1.0f, 1.0f};
  const float y[] = {2.0f, 2.0f};
  EXPECT_NEAR(Cosine(x, y, 2), 1.0f, 1e-6f);
}

TEST(VecMathTest, CosineOrthogonal) {
  const float x[] = {1.0f, 0.0f};
  const float y[] = {0.0f, 1.0f};
  EXPECT_NEAR(Cosine(x, y, 2), 0.0f, 1e-6f);
}

TEST(VecMathTest, CosineOpposite) {
  const float x[] = {1.0f, 0.0f};
  const float y[] = {-3.0f, 0.0f};
  EXPECT_NEAR(Cosine(x, y, 2), -1.0f, 1e-6f);
}

TEST(VecMathTest, CosineZeroVectorIsZero) {
  const float x[] = {0.0f, 0.0f};
  const float y[] = {1.0f, 2.0f};
  EXPECT_FLOAT_EQ(Cosine(x, y, 2), 0.0f);
}

TEST(VecMathTest, SigmoidKnownValues) {
  EXPECT_NEAR(Sigmoid(0.0f), 0.5f, 1e-6f);
  EXPECT_NEAR(Sigmoid(100.0f), 1.0f, 1e-6f);
  EXPECT_NEAR(Sigmoid(-100.0f), 0.0f, 1e-6f);
  EXPECT_NEAR(Sigmoid(1.0f), 0.7310586f, 1e-5f);
}

TEST(VecMathTest, SigmoidSymmetry) {
  for (float x = -5.0f; x <= 5.0f; x += 0.37f) {
    EXPECT_NEAR(Sigmoid(x) + Sigmoid(-x), 1.0f, 1e-5f);
  }
}

class SigmoidTableSweep : public ::testing::TestWithParam<float> {};

TEST_P(SigmoidTableSweep, MatchesExactSigmoid) {
  static const SigmoidTable table;
  const float x = GetParam();
  // The table clamps outside [-8, 8], so allow the clamp error sigma(8)~1.
  EXPECT_NEAR(table(x), Sigmoid(x), 4e-4f) << "x=" << x;
}

INSTANTIATE_TEST_SUITE_P(Points, SigmoidTableSweep,
                         ::testing::Values(-10.0f, -8.0f, -7.99f, -4.2f,
                                           -1.0f, -0.01f, 0.0f, 0.01f, 0.5f,
                                           1.0f, 2.7f, 6.3f, 7.99f, 8.0f,
                                           10.0f));

TEST(SigmoidTableTest, SaturatesOutsideBound) {
  SigmoidTable table;
  EXPECT_FLOAT_EQ(table(100.0f), 1.0f);
  EXPECT_FLOAT_EQ(table(-100.0f), 0.0f);
}

TEST(SigmoidTableTest, MonotoneNonDecreasing) {
  SigmoidTable table;
  float prev = table(-9.0f);
  for (float x = -9.0f; x <= 9.0f; x += 0.05f) {
    const float cur = table(x);
    EXPECT_GE(cur, prev - 1e-6f);
    prev = cur;
  }
}

class VecSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(VecSizeSweep, DotMatchesReference) {
  const std::size_t n = GetParam();
  Rng rng(n + 1);
  std::vector<float> x(n), y(n);
  double ref = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.UniformFloat() - 0.5f;
    y[i] = rng.UniformFloat() - 0.5f;
    ref += static_cast<double>(x[i]) * y[i];
  }
  EXPECT_NEAR(Dot(x.data(), y.data(), n), static_cast<float>(ref),
              1e-4f * (n + 1));
}

TEST_P(VecSizeSweep, CosineBounded) {
  const std::size_t n = GetParam();
  if (n == 0) return;
  Rng rng(n + 7);
  std::vector<float> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.UniformFloat() - 0.5f;
    y[i] = rng.UniformFloat() - 0.5f;
  }
  const float c = Cosine(x.data(), y.data(), n);
  EXPECT_GE(c, -1.0f - 1e-5f);
  EXPECT_LE(c, 1.0f + 1e-5f);
}

INSTANTIATE_TEST_SUITE_P(Sizes, VecSizeSweep,
                         ::testing::Values(0u, 1u, 2u, 3u, 7u, 16u, 31u, 64u,
                                           128u, 300u));

#if defined(ACTOR_TSAN)
// ThreadSanitizer builds install only the relaxed kernels: every request,
// the static initializer's included, lands on kRelaxed.
TEST(VecBackendTest, SetBackendRoundTrip) {
  const VecBackend original = ActiveVecBackend();
  for (VecBackend backend :
       {VecBackend::kScalar, VecBackend::kAvx2, VecBackend::kRelaxed}) {
    EXPECT_EQ(SetVecBackend(backend), VecBackend::kRelaxed)
        << VecBackendName(backend);
    EXPECT_EQ(ActiveVecBackend(), VecBackend::kRelaxed)
        << VecBackendName(backend);
  }
  SetVecBackend(original);
}

TEST(VecBackendTest, DefaultIsBestAvailable) {
  EXPECT_EQ(ActiveVecBackend(), VecBackend::kRelaxed);
}
#else
TEST(VecBackendTest, SetBackendRoundTrip) {
  const VecBackend original = ActiveVecBackend();
  EXPECT_EQ(SetVecBackend(VecBackend::kScalar), VecBackend::kScalar);
  EXPECT_EQ(ActiveVecBackend(), VecBackend::kScalar);
  const VecBackend applied = SetVecBackend(VecBackend::kAvx2);
  if (Avx2Available()) {
    EXPECT_EQ(applied, VecBackend::kAvx2);
  } else {
    EXPECT_EQ(applied, VecBackend::kScalar);
  }
  SetVecBackend(original);
}

TEST(VecBackendTest, DefaultIsBestAvailable) {
  // The static initializer installs AVX2 kernels when the CPU has them.
  if (Avx2Available()) {
    EXPECT_EQ(ActiveVecBackend(), VecBackend::kAvx2);
  } else {
    EXPECT_EQ(ActiveVecBackend(), VecBackend::kScalar);
  }
}
#endif

TEST(VecBackendTest, BackendNames) {
  EXPECT_STREQ(VecBackendName(VecBackend::kScalar), "scalar");
  EXPECT_STREQ(VecBackendName(VecBackend::kAvx2), "avx2");
}

/// SharedNegativeBlock's contract, composed from the active backend's own
/// Dot, SigmoidTable, Zero, Axpy and Add: every dot and center gradient
/// from the start values, then the N_k, P_b and C_b writes in that order.
/// `grads` receives the center gradients, as the kernel's output does.
void ReferenceBlock(float* const* centers, float* const* positives,
                    std::size_t n_steps, float* const* negatives,
                    std::size_t n_negatives, float lr,
                    const SigmoidTable& sigmoid, float* grads,
                    std::size_t dim) {
  const std::size_t stride = 1 + n_negatives;
  std::vector<float> g(n_steps * stride);
  for (std::size_t b = 0; b < n_steps; ++b) {
    g[b * stride] =
        (1.0f - sigmoid(Dot(centers[b], positives[b], dim))) * lr;
    for (std::size_t k = 0; k < n_negatives; ++k) {
      g[b * stride + 1 + k] =
          negatives[k] == positives[b]
              ? 0.0f
              : -sigmoid(Dot(centers[b], negatives[k], dim)) * lr;
    }
  }
  for (std::size_t b = 0; b < n_steps; ++b) {
    float* grad = grads + b * dim;
    Zero(grad, dim);
    Axpy(g[b * stride], positives[b], grad, dim);
    for (std::size_t k = 0; k < n_negatives; ++k) {
      Axpy(g[b * stride + 1 + k], negatives[k], grad, dim);
    }
  }
  for (std::size_t k = 0; k < n_negatives; ++k) {
    for (std::size_t b = 0; b < n_steps; ++b) {
      Axpy(g[b * stride + 1 + k], centers[b], negatives[k], dim);
    }
  }
  for (std::size_t b = 0; b < n_steps; ++b) {
    Axpy(g[b * stride], centers[b], positives[b], dim);
  }
  for (std::size_t b = 0; b < n_steps; ++b) {
    Add(grads + b * dim, centers[b], dim);
  }
}

struct BlockCase {
  std::string name;
  std::vector<int> centers;    // indices into the center pool
  std::vector<int> positives;  // indices into the context pool
  std::vector<int> negatives;  // indices into the context pool
  // Empty: random rows. Otherwise the dot of each (step, row) pair in the
  // kernel's coefs layout, made exact by unit center rows.
  std::vector<float> dots;
};

/// The block-step cases at one (steps, negatives) size: distinct rows,
/// each aliasing the contract orders, and all of them at once.
std::vector<BlockCase> BlockCases(int steps, int negatives) {
  BlockCase base{"distinct rows", {}, {}, {}, {}};
  for (int b = 0; b < steps; ++b) {
    base.centers.push_back(b);
    base.positives.push_back(b);
  }
  for (int k = 0; k < negatives; ++k) base.negatives.push_back(steps + k);
  std::vector<BlockCase> cases = {base};
  BlockCase all = base;
  all.name = "every aliasing at once";
  auto add = [&](const char* name, auto mutate) {
    BlockCase c = base;
    c.name = name;
    mutate(&c);
    mutate(&all);
    cases.push_back(c);
  };
  add("negative equals its own positive",
      [](BlockCase* c) { c->negatives.back() = c->positives.front(); });
  if (steps >= 2) {
    add("negative equals another step's positive",
        [](BlockCase* c) { c->negatives.front() = c->positives.back(); });
    add("same center twice",
        [](BlockCase* c) { c->centers.back() = c->centers.front(); });
    add("same positive twice",
        [](BlockCase* c) { c->positives.back() = c->positives.front(); });
  }
  if (negatives >= 2) {
    // Adjacent draws: the AVX2 body handles negatives two at a time.
    add("same negative twice in adjacent draws",
        [](BlockCase* c) { c->negatives[1] = c->negatives[0]; });
  }
  if (negatives >= 4) {
    add("same negative twice in distant draws",
        [](BlockCase* c) { c->negatives[3] = c->negatives[1]; });
  }
  cases.push_back(all);
  return cases;
}

/// Runs `c` through the kernel and the reference on identical copies of
/// random center and context pools and checks every bit of both pools and
/// of the center gradients.
void ExpectBlockMatchesReference(VecBackend backend, std::size_t dim,
                                 const BlockCase& c) {
  constexpr std::size_t kCenterRows = 16;  // the largest chunk tested
  constexpr std::size_t kContextRows = kCenterRows + 24;
  std::vector<float> center_init(kCenterRows * dim);
  std::vector<float> context_init(kContextRows * dim);
  if (c.dots.empty()) {
    Rng rng(2000 + dim);
    for (auto& x : center_init) x = 3.0f * (rng.UniformFloat() - 0.5f);
    for (auto& x : context_init) x = 3.0f * (rng.UniformFloat() - 0.5f);
  } else {
    // Center row r is the unit vector e_r, and a context row holds its dot
    // with step b's center at axis centers[b], so every dot is exactly the
    // chosen value (a row that is a step's positive and one of its
    // negatives keeps the positive's).
    ASSERT_GE(dim, kCenterRows);
    for (std::size_t r = 0; r < kCenterRows; ++r) {
      center_init[r * dim + r] = 1.0f;
    }
    const std::size_t stride = 1 + c.negatives.size();
    ASSERT_EQ(c.dots.size(), c.centers.size() * stride);
    for (std::size_t b = 0; b < c.centers.size(); ++b) {
      const std::size_t axis = c.centers[b];
      for (std::size_t k = 0; k < c.negatives.size(); ++k) {
        context_init[c.negatives[k] * dim + axis] = c.dots[b * stride + 1 + k];
      }
      context_init[c.positives[b] * dim + axis] = c.dots[b * stride];
    }
  }
  const SigmoidTable sigmoid;
  SetVecBackend(backend);
  auto run = [&](bool kernel, std::vector<float>* center_pool,
                 std::vector<float>* context_pool, std::vector<float>* grads) {
    *center_pool = center_init;
    *context_pool = context_init;
    grads->assign(c.centers.size() * dim, -1.0f);
    std::vector<float*> centers, positives, negatives;
    for (int r : c.centers) centers.push_back(center_pool->data() + r * dim);
    for (int r : c.positives) {
      positives.push_back(context_pool->data() + r * dim);
    }
    for (int r : c.negatives) {
      negatives.push_back(context_pool->data() + r * dim);
    }
    if (kernel) {
      std::vector<float> coefs(centers.size() * (1 + negatives.size()));
      SharedNegativeBlock(centers.data(), positives.data(), centers.size(),
                          negatives.data(), negatives.size(), 0.3f, sigmoid,
                          grads->data(), coefs.data(), dim);
    } else {
      ReferenceBlock(centers.data(), positives.data(), centers.size(),
                     negatives.data(), negatives.size(), 0.3f, sigmoid,
                     grads->data(), dim);
    }
  };
  std::vector<float> center_kernel, context_kernel, grads_kernel;
  std::vector<float> center_ref, context_ref, grads_ref;
  run(true, &center_kernel, &context_kernel, &grads_kernel);
  run(false, &center_ref, &context_ref, &grads_ref);
  const std::string where = std::string(VecBackendName(backend)) + " " +
                            c.name + " dim=" + std::to_string(dim) +
                            " steps=" + std::to_string(c.centers.size()) +
                            " negatives=" + std::to_string(c.negatives.size());
  for (std::size_t i = 0; i < center_ref.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(center_kernel[i]),
              std::bit_cast<uint32_t>(center_ref[i]))
        << where << " center row=" << i / dim << " i=" << i % dim;
  }
  for (std::size_t i = 0; i < context_ref.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(context_kernel[i]),
              std::bit_cast<uint32_t>(context_ref[i]))
        << where << " context row=" << i / dim << " i=" << i % dim;
  }
  for (std::size_t i = 0; i < grads_ref.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(grads_kernel[i]),
              std::bit_cast<uint32_t>(grads_ref[i]))
        << where << " grads step=" << i / dim << " i=" << i % dim;
  }
  // The case must actually train: a no-op kernel would match a no-op
  // reference.
  ASSERT_NE(center_kernel, center_init) << where;
}

TEST(SharedNegativeBlockTest, BitIdenticalToContractOnEveryBackend) {
  const VecBackend original = ActiveVecBackend();
  std::vector<VecBackend> backends = {VecBackend::kScalar,
                                      VecBackend::kRelaxed};
  if (Avx2Available()) backends.push_back(VecBackend::kAvx2);
  for (VecBackend backend : backends) {
    for (std::size_t dim : {32u, 48u, 7u}) {
      for (int steps : {1, 5, 16}) {
        for (int negatives : {1, 5, 20}) {
          for (const BlockCase& c : BlockCases(steps, negatives)) {
            ExpectBlockMatchesReference(backend, dim, c);
          }
        }
      }
    }
  }
  SetVecBackend(original);
}

/// One-step calls, the shape every batch trainer's NegativeSamplingUpdate
/// makes: distinct rows, a repeated negative, a negative equal to the
/// positive, and a step left with no valid negative, which passes its
/// positive as the one negative.
TEST(SharedNegativeBlockTest, OneStepCasesBitIdenticalOnEveryBackend) {
  const std::vector<BlockCase> cases = {
      {"one step, distinct rows", {0}, {0}, {1, 2, 3, 4, 5}, {}},
      {"one step, repeated negative", {0}, {0}, {1, 2, 1, 3, 2}, {}},
      {"one step, negative equal to the positive", {0}, {0}, {1, 0, 2}, {}},
      {"one step, no valid negative", {0}, {0}, {0}, {}},
  };
  const VecBackend original = ActiveVecBackend();
  std::vector<VecBackend> backends = {VecBackend::kScalar,
                                      VecBackend::kRelaxed};
  if (Avx2Available()) backends.push_back(VecBackend::kAvx2);
  for (VecBackend backend : backends) {
    for (std::size_t dim : {32u, 48u, 7u}) {
      for (const BlockCase& c : cases) {
        ExpectBlockMatchesReference(backend, dim, c);
      }
    }
  }
  SetVecBackend(original);
}

/// A step with no valid negative trains its positive alone: the same bits
/// as the positive-only Dot + SigmoidTable + Axpy + Add composition.
TEST(SharedNegativeBlockTest, NoValidNegativeTrainsThePositiveAlone) {
  const VecBackend original = ActiveVecBackend();
  std::vector<VecBackend> backends = {VecBackend::kScalar,
                                      VecBackend::kRelaxed};
  if (Avx2Available()) backends.push_back(VecBackend::kAvx2);
  const SigmoidTable sigmoid;
  for (VecBackend backend : backends) {
    SetVecBackend(backend);
    for (std::size_t dim : {32u, 48u, 7u}) {
      Rng rng(3000 + dim);
      std::vector<float> center(dim), positive(dim);
      for (auto& x : center) x = rng.UniformFloat() - 0.5f;
      for (auto& x : positive) x = rng.UniformFloat() - 0.5f;
      std::vector<float> center_ref = center, positive_ref = positive;
      std::vector<float> grad(dim), grad_ref(dim, 0.0f);
      float coefs[2];
      float* c = center.data();
      float* p = positive.data();
      SharedNegativeBlock(&c, &p, 1, &p, 1, 0.3f, sigmoid, grad.data(), coefs,
                          dim);
      const float g =
          (1.0f - sigmoid(Dot(center_ref.data(), positive_ref.data(), dim))) *
          0.3f;
      Axpy(g, positive_ref.data(), grad_ref.data(), dim);
      Axpy(g, center_ref.data(), positive_ref.data(), dim);
      Add(grad_ref.data(), center_ref.data(), dim);
      for (std::size_t i = 0; i < dim; ++i) {
        const std::string where = std::string(VecBackendName(backend)) +
                                  " dim=" + std::to_string(dim) +
                                  " i=" + std::to_string(i);
        ASSERT_EQ(std::bit_cast<uint32_t>(center[i]),
                  std::bit_cast<uint32_t>(center_ref[i]))
            << where;
        ASSERT_EQ(std::bit_cast<uint32_t>(positive[i]),
                  std::bit_cast<uint32_t>(positive_ref[i]))
            << where;
        ASSERT_EQ(std::bit_cast<uint32_t>(grad[i]),
                  std::bit_cast<uint32_t>(grad_ref[i]))
            << where;
      }
    }
  }
  SetVecBackend(original);
}

/// The dots at which the coefficient pass's sigmoid lookup changes
/// behaviour: every table-cell edge -kBound + i * 2 * kBound / 1024 (which
/// includes +-kBound) with both nextafter neighbours, +-0 (Dot turns -0
/// into +0), the smallest subnormals and +-1e30.
std::vector<float> SigmoidEdgeDots() {
  constexpr int kCells = 1024;  // SigmoidTable's cells over +-kBound
  constexpr float kBound = SigmoidTable::kBound;
  constexpr float kInf = std::numeric_limits<float>::infinity();
  const float sub = std::numeric_limits<float>::denorm_min();
  std::vector<float> dots = {0.0f, -0.0f, sub, -sub, 1e30f, -1e30f};
  for (int i = 0; i <= kCells; ++i) {
    const float edge =
        -kBound + static_cast<float>(i) * (2.0f * kBound / kCells);
    dots.push_back(std::nextafter(edge, -kInf));
    dots.push_back(edge);
    dots.push_back(std::nextafter(edge, kInf));
  }
  return dots;
}

TEST(SharedNegativeBlockTest, SigmoidTableEdgesBitIdenticalOnEveryBackend) {
  const std::vector<float> edges = SigmoidEdgeDots();
  // Unit center rows need dim >= 16; 19 adds a scalar tail to each dot.
  constexpr std::size_t kDim = 19;
  // (steps, negatives): n_steps * (1 + K) of 6 (no whole eight-lane
  // vector), 15, 15 and 22 leave a tail; 8, 96 and 336 do not.
  const std::pair<int, int> shapes[] = {{1, 5}, {5, 2}, {3, 4}, {2, 10},
                                        {4, 1}, {16, 5}, {16, 20}};
  const VecBackend original = ActiveVecBackend();
  std::vector<VecBackend> backends = {VecBackend::kScalar,
                                      VecBackend::kRelaxed};
  if (Avx2Available()) backends.push_back(VecBackend::kAvx2);
  for (VecBackend backend : backends) {
    for (const auto& [steps, negatives] : shapes) {
      const std::size_t total = steps * (1 + negatives);
      BlockCase base = BlockCases(steps, negatives).front();
      base.name = "sigmoid edges";
      // A negative that is its step's positive: at coefficient 1 (the
      // first vector lane once total >= 8) and at the last coefficient (a
      // tail lane when total is not a multiple of 8).
      BlockCase first_lane = base;
      first_lane.name = "sigmoid edges, own positive at coefficient 1";
      first_lane.negatives.front() = first_lane.positives.front();
      BlockCase last_lane = base;
      last_lane.name = "sigmoid edges, own positive at the last coefficient";
      last_lane.negatives.back() = last_lane.positives.back();
      for (const BlockCase& shape : {base, first_lane, last_lane}) {
        // Coefficient 0 is a fixed in-range dot, so every chunk trains;
        // the others walk the edge list.
        for (std::size_t at = 0; at < edges.size(); at += total - 1) {
          BlockCase c = shape;
          c.name += " from edge " + std::to_string(at);
          c.dots = {0.5f};
          for (std::size_t q = 1; q < total; ++q) {
            c.dots.push_back(edges[(at + q - 1) % edges.size()]);
          }
          ExpectBlockMatchesReference(backend, kDim, c);
          if (HasFatalFailure()) {
            SetVecBackend(original);
            return;
          }
        }
      }
    }
  }
  SetVecBackend(original);
}

/// SIMD/scalar kernel parity across every dim in 1..257, covering all
/// vector-width tail cases (non-multiple-of-8/16 lengths). Elementwise
/// kernels must agree within 1 ulp (FMA rounds differently from
/// mul-then-add); reductions (Dot/Norm2) reassociate, so both backends are
/// compared against a double-precision reference instead.
class KernelParity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!Avx2Available()) {
      GTEST_SKIP() << "no AVX2 on this machine; nothing to compare";
    }
  }
  void TearDown() override { SetVecBackend(VecBackend::kAvx2); }

  static std::vector<float> RandomVec(std::size_t n, uint64_t seed) {
    Rng rng(seed);
    std::vector<float> v(n);
    for (auto& x : v) x = rng.UniformFloat() - 0.5f;
    return v;
  }
};

TEST_F(KernelParity, DotMatchesDoubleReference) {
  for (std::size_t n = 1; n <= 257; ++n) {
    const auto x = RandomVec(n, 2 * n);
    const auto y = RandomVec(n, 2 * n + 1);
    double ref = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      ref += static_cast<double>(x[i]) * y[i];
    }
    const float tol = 1e-5f + 1e-6f * static_cast<float>(n);
    SetVecBackend(VecBackend::kAvx2);
    EXPECT_NEAR(Dot(x.data(), y.data(), n), ref, tol) << "n=" << n;
    SetVecBackend(VecBackend::kScalar);
    EXPECT_NEAR(Dot(x.data(), y.data(), n), ref, tol) << "n=" << n;
  }
}

TEST_F(KernelParity, DotAndNorm2BatchMatchesSequentialBitExactly) {
  // QueryBatch's determinism contract (docs/serving.md): every per-query
  // chain of the blocked kernel runs the stand-alone Dot()'s reduction
  // order on the same backend, and so does the shared y_norm2 chain, so
  // cosine scores are bit-identical to the Cosine() path.
  // Batch widths cover the register-block boundaries of both backends
  // (pairs in AVX2, quads in scalar) plus their remainders.
  for (std::size_t n : {1u, 2u, 7u, 8u, 15u, 16u, 17u, 31u, 33u, 64u, 100u,
                        257u}) {
    for (std::size_t b : {0u, 1u, 2u, 3u, 4u, 5u, 8u, 17u}) {
      std::vector<std::vector<float>> qs(b);
      std::vector<const float*> qptrs(b);
      for (std::size_t j = 0; j < b; ++j) {
        qs[j] = RandomVec(n, 1000 * n + j);
        qptrs[j] = qs[j].data();
      }
      const auto y = RandomVec(n, 999 * n + 123);
      for (VecBackend backend : {VecBackend::kAvx2, VecBackend::kScalar}) {
        SetVecBackend(backend);
        std::vector<float> dots(b, -1.0f);
        float norm2 = -1.0f;
        DotAndNorm2Batch(qptrs.data(), b, y.data(), n, dots.data(), &norm2);
        ASSERT_EQ(norm2, Dot(y.data(), y.data(), n))
            << VecBackendName(backend) << " n=" << n << " b=" << b;
        for (std::size_t j = 0; j < b; ++j) {
          ASSERT_EQ(dots[j], Dot(qptrs[j], y.data(), n))
              << VecBackendName(backend) << " n=" << n << " b=" << b
              << " j=" << j;
        }
      }
    }
  }
}

TEST_F(KernelParity, DotAndNorm2BatchMatchesDoubleReference) {
  for (std::size_t n = 1; n <= 257; ++n) {
    for (std::size_t b : {1u, 5u}) {
      std::vector<std::vector<float>> qs(b);
      std::vector<const float*> qptrs(b);
      for (std::size_t j = 0; j < b; ++j) {
        qs[j] = RandomVec(n, 11 * n + 2 * j);
        qptrs[j] = qs[j].data();
      }
      const auto y = RandomVec(n, 11 * n + 1);
      double ref_norm2 = 0.0;
      std::vector<double> ref_dots(b, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        ref_norm2 += static_cast<double>(y[i]) * y[i];
        for (std::size_t j = 0; j < b; ++j) {
          ref_dots[j] += static_cast<double>(qs[j][i]) * y[i];
        }
      }
      const float tol = 1e-5f + 1e-6f * static_cast<float>(n);
      for (VecBackend backend : {VecBackend::kAvx2, VecBackend::kScalar}) {
        SetVecBackend(backend);
        std::vector<float> dots(b, 0.0f);
        float norm2 = 0.0f;
        DotAndNorm2Batch(qptrs.data(), b, y.data(), n, dots.data(), &norm2);
        EXPECT_NEAR(norm2, ref_norm2, tol) << "n=" << n << " b=" << b;
        for (std::size_t j = 0; j < b; ++j) {
          EXPECT_NEAR(dots[j], ref_dots[j], tol)
              << "n=" << n << " b=" << b << " j=" << j;
        }
      }
    }
  }
}

TEST_F(KernelParity, AxpyWithin1Ulp) {
  for (std::size_t n = 1; n <= 257; ++n) {
    const auto x = RandomVec(n, 3 * n);
    auto y_simd = RandomVec(n, 3 * n + 1);
    auto y_ref = y_simd;
    SetVecBackend(VecBackend::kAvx2);
    Axpy(0.25f, x.data(), y_simd.data(), n);
    scalar::Axpy(0.25f, x.data(), y_ref.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_LE(UlpDiff(y_simd[i], y_ref[i]), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST_F(KernelParity, AddExact) {
  for (std::size_t n = 1; n <= 257; ++n) {
    const auto x = RandomVec(n, 5 * n);
    auto out_simd = RandomVec(n, 5 * n + 1);
    auto out_ref = out_simd;
    SetVecBackend(VecBackend::kAvx2);
    Add(x.data(), out_simd.data(), n);
    scalar::Add(x.data(), out_ref.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out_simd[i], out_ref[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST_F(KernelParity, ScaleExact) {
  for (std::size_t n = 1; n <= 257; ++n) {
    auto x_simd = RandomVec(n, 7 * n);
    auto x_ref = x_simd;
    SetVecBackend(VecBackend::kAvx2);
    Scale(0.815f, x_simd.data(), n);
    scalar::Scale(0.815f, x_ref.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(x_simd[i], x_ref[i]) << "n=" << n << " i=" << i;
    }
  }
}

TEST_F(KernelParity, Norm2Close) {
  for (std::size_t n = 1; n <= 257; ++n) {
    const auto x = RandomVec(n, 11 * n);
    SetVecBackend(VecBackend::kAvx2);
    const float simd = Norm2(x.data(), n);
    const float ref = scalar::Norm2(x.data(), n);
    EXPECT_NEAR(simd, ref, 1e-5f + 1e-6f * static_cast<float>(n))
        << "n=" << n;
  }
}

/// The relaxed (TSan-annotated) kernels mirror the scalar loops statement
/// for statement, so outside FMA-contraction wiggle they must agree with
/// scalar:: within 1 ulp — this is the guarantee that the TSan build
/// trains the same model the release build does.
TEST(RelaxedKernelParity, ElementwiseMatchesScalarWithin1Ulp) {
  Rng seed_rng(41);
  for (std::size_t n = 1; n <= 257; n += 3) {
    Rng rng(seed_rng.Next());
    std::vector<float> x(n), base(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.UniformFloat() - 0.5f;
      base[i] = rng.UniformFloat() - 0.5f;
    }
    auto y_rel = base, y_ref = base;
    relaxed::Axpy(0.25f, x.data(), y_rel.data(), n);
    scalar::Axpy(0.25f, x.data(), y_ref.data(), n);
    auto add_rel = base, add_ref = base;
    relaxed::Add(x.data(), add_rel.data(), n);
    scalar::Add(x.data(), add_ref.data(), n);
    auto s_rel = base, s_ref = base;
    relaxed::Scale(0.815f, s_rel.data(), n);
    scalar::Scale(0.815f, s_ref.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_LE(UlpDiff(y_rel[i], y_ref[i]), 1) << "axpy n=" << n;
      ASSERT_EQ(add_rel[i], add_ref[i]) << "add n=" << n;
      ASSERT_EQ(s_rel[i], s_ref[i]) << "scale n=" << n;
    }
  }
}

TEST(RelaxedKernelParity, DotMatchesDoubleReference) {
  for (std::size_t n = 1; n <= 257; n += 3) {
    Rng rng(17 * n);
    std::vector<float> x(n), y(n);
    double ref = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.UniformFloat() - 0.5f;
      y[i] = rng.UniformFloat() - 0.5f;
      ref += static_cast<double>(x[i]) * y[i];
    }
    const float tol = 1e-5f + 1e-6f * static_cast<float>(n);
    EXPECT_NEAR(relaxed::Dot(x.data(), y.data(), n), ref, tol) << "n=" << n;
    EXPECT_NEAR(relaxed::Norm2(x.data(), n),
                std::sqrt(relaxed::Dot(x.data(), x.data(), n)), 0.0f);
  }
}

TEST(RelaxedKernelParity, DotAndNorm2BatchMatchesSequentialBitExactly) {
  for (std::size_t n = 1; n <= 257; n += 13) {
    for (std::size_t b : {1u, 3u, 4u, 9u}) {
      Rng rng(23 * n + b);
      std::vector<std::vector<float>> qs(b);
      std::vector<const float*> qptrs(b);
      for (std::size_t j = 0; j < b; ++j) {
        qs[j].resize(n);
        for (auto& v : qs[j]) v = rng.UniformFloat() - 0.5f;
        qptrs[j] = qs[j].data();
      }
      std::vector<float> y(n);
      for (auto& v : y) v = rng.UniformFloat() - 0.5f;
      std::vector<float> dots(b, -1.0f);
      float norm2 = -1.0f;
      relaxed::DotAndNorm2Batch(qptrs.data(), b, y.data(), n, dots.data(),
                                &norm2);
      ASSERT_EQ(norm2, relaxed::Dot(y.data(), y.data(), n))
          << "n=" << n << " b=" << b;
      for (std::size_t j = 0; j < b; ++j) {
        ASSERT_EQ(dots[j], relaxed::Dot(qptrs[j], y.data(), n))
            << "n=" << n << " b=" << b << " j=" << j;
      }
    }
  }
}

#if !defined(ACTOR_TSAN)
/// Release-build guarantee behind the "zero throughput regression" claim:
/// the relaxed accessors only change dispatch in ACTOR_TSAN builds, so a
/// normal build must still install the AVX2 kernels by default.
TEST(RelaxedKernelParity, ReleaseDispatchStillPrefersSimd) {
  const VecBackend active = ActiveVecBackend();
  EXPECT_EQ(active, Avx2Available() ? VecBackend::kAvx2
                                    : VecBackend::kScalar);
  EXPECT_EQ(SetVecBackend(VecBackend::kRelaxed), VecBackend::kRelaxed);
  const float x[] = {1.0f, 2.0f, 3.0f};
  const float y[] = {4.0f, -5.0f, 6.0f};
  EXPECT_FLOAT_EQ(Dot(x, y, 3), 12.0f);  // dispatches through relaxed::Dot
  SetVecBackend(VecBackend::kAvx2);  // restore the default for other tests
}
#endif

}  // namespace
}  // namespace actor
