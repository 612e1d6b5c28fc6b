#include "util/vec_math.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
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

TEST(VecBackendTest, BackendNames) {
  EXPECT_STREQ(VecBackendName(VecBackend::kScalar), "scalar");
  EXPECT_STREQ(VecBackendName(VecBackend::kAvx2), "avx2");
}

TEST(ScalarKernelTest, FusedGradStepMatchesTwoAxpys) {
  // The fused kernel is defined as Axpy(g, ctx, grad) then
  // Axpy(g, center, ctx); the scalar version must match bit-for-bit...
  // up to FMA contraction the compiler may apply to either loop, so
  // compare within 1 ulp.
  const std::size_t n = 37;
  Rng rng(99);
  std::vector<float> center(n), ctx(n), ctx2(n), grad(n), grad2(n);
  for (std::size_t i = 0; i < n; ++i) {
    center[i] = rng.UniformFloat() - 0.5f;
    ctx[i] = ctx2[i] = rng.UniformFloat() - 0.5f;
    grad[i] = grad2[i] = rng.UniformFloat() - 0.5f;
  }
  const float g = 0.37f;
  scalar::FusedGradStep(g, center.data(), ctx.data(), grad.data(), n);
  scalar::Axpy(g, ctx2.data(), grad2.data(), n);
  scalar::Axpy(g, center.data(), ctx2.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_LE(UlpDiff(ctx[i], ctx2[i]), 1) << "i=" << i;
    EXPECT_LE(UlpDiff(grad[i], grad2[i]), 1) << "i=" << i;
  }
}

/// NegativeSamplingStep's contract: on every backend it is bit-identical to
/// that backend's own Dot + SigmoidTable + FusedGradStep sequence, one row
/// at a time.
void ReferenceStep(const float* center, float* const* rows, std::size_t n,
                   bool first_positive, float lr, const SigmoidTable& sigmoid,
                   float* grad, std::size_t dim) {
  for (std::size_t k = 0; k < n; ++k) {
    const float score = sigmoid(Dot(center, rows[k], dim));
    const float g =
        first_positive && k == 0 ? (1.0f - score) * lr : -score * lr;
    FusedGradStep(g, center, rows[k], grad, dim);
  }
}

struct StepCase {
  const char* name;
  std::vector<int> rows;  // indices into a pool of kPoolRows rows
  int center = -1;        // pool index of the center, or -1 for its own buffer
  bool first_positive = true;
};

/// Runs `c` through the kernel and the reference on identical copies of a
/// random row pool and checks every row and gradient bit.
void ExpectStepMatchesReference(VecBackend backend, std::size_t dim,
                                const StepCase& c) {
  constexpr std::size_t kPoolRows = 24;
  Rng rng(1000 + dim);
  std::vector<float> init((kPoolRows + 1) * dim);  // last row: own center
  for (auto& x : init) x = 3.0f * (rng.UniformFloat() - 0.5f);
  std::vector<float> grad_init(dim);
  for (auto& x : grad_init) x = rng.UniformFloat() - 0.5f;
  const SigmoidTable sigmoid;
  SetVecBackend(backend);
  auto run = [&](bool fused, std::vector<float>* pool,
                 std::vector<float>* grad) {
    *pool = init;
    *grad = grad_init;
    std::vector<float*> rows;
    for (int r : c.rows) rows.push_back(pool->data() + r * dim);
    const std::size_t center_row =
        c.center < 0 ? kPoolRows : static_cast<std::size_t>(c.center);
    const float* center = pool->data() + center_row * dim;
    if (fused) {
      NegativeSamplingStep(center, rows.data(), rows.size(), c.first_positive,
                           0.3f, sigmoid, grad->data(), dim);
    } else {
      ReferenceStep(center, rows.data(), rows.size(), c.first_positive, 0.3f,
                    sigmoid, grad->data(), dim);
    }
  };
  std::vector<float> pool_fused, grad_fused, pool_ref, grad_ref;
  run(true, &pool_fused, &grad_fused);
  run(false, &pool_ref, &grad_ref);
  for (std::size_t i = 0; i < pool_ref.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(pool_fused[i]),
              std::bit_cast<uint32_t>(pool_ref[i]))
        << VecBackendName(backend) << " " << c.name << " dim=" << dim
        << " row=" << i / dim << " i=" << i % dim;
  }
  for (std::size_t i = 0; i < dim; ++i) {
    ASSERT_EQ(std::bit_cast<uint32_t>(grad_fused[i]),
              std::bit_cast<uint32_t>(grad_ref[i]))
        << VecBackendName(backend) << " " << c.name << " dim=" << dim
        << " grad i=" << i;
  }
}

TEST(NegativeSamplingStepTest, BitIdenticalToPerRowCompositionOnEveryBackend) {
  std::vector<int> full(kMaxStepRows);  // the most rows one call takes
  std::iota(full.begin(), full.end(), 0);
  std::vector<int> full_repeat = full;
  full_repeat.back() = full.front();
  const StepCase cases[] = {
      {"single row", {3}},
      {"distinct rows", {0, 5, 9, 2, 7, 11}},
      {"odd distinct rows", {0, 5, 9, 2, 7}},
      {"duplicated negative", {0, 5, 9, 5, 7, 11}},
      {"negative equal to positive", {4, 1, 4}},
      {"center among rows", {0, 6, 2}, /*center=*/6},
      {"negatives only", {1, 2, 3}, -1, /*first_positive=*/false},
      {"kMaxStepRows distinct rows", full},
      {"kMaxStepRows rows, last repeats the positive", full_repeat},
  };
  const VecBackend original = ActiveVecBackend();
  std::vector<VecBackend> backends = {VecBackend::kScalar,
                                      VecBackend::kRelaxed};
  if (Avx2Available()) backends.push_back(VecBackend::kAvx2);
  for (VecBackend backend : backends) {
    for (std::size_t dim : {32u, 48u, 7u}) {
      for (const StepCase& c : cases) {
        ExpectStepMatchesReference(backend, dim, c);
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

TEST_F(KernelParity, DotAndNorm2MatchesSeparateDotsBitExactly) {
  // The serving contract (docs/serving.md): each fused chain runs the
  // exact reduction order of the corresponding separate Dot() call on the
  // same backend, so cosine scores computed through DotAndNorm2 are
  // bit-identical to the pre-fusion Cosine() path.
  for (std::size_t n = 1; n <= 257; ++n) {
    const auto x = RandomVec(n, 7 * n);
    const auto y = RandomVec(n, 7 * n + 1);
    for (VecBackend backend : {VecBackend::kAvx2, VecBackend::kScalar}) {
      SetVecBackend(backend);
      float dot = -1.0f, norm2 = -1.0f;
      DotAndNorm2(x.data(), y.data(), n, &dot, &norm2);
      ASSERT_EQ(dot, Dot(x.data(), y.data(), n))
          << VecBackendName(backend) << " n=" << n;
      ASSERT_EQ(norm2, Dot(y.data(), y.data(), n))
          << VecBackendName(backend) << " n=" << n;
    }
  }
}

TEST_F(KernelParity, DotAndNorm2BatchMatchesSequentialBitExactly) {
  // QueryBatch's determinism contract: every per-query chain of the
  // blocked kernel runs the stand-alone Dot()'s reduction order on the
  // same backend, and the shared y_norm2 chain matches DotAndNorm2's.
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
          float sdot = -2.0f;
          float snorm2 = -2.0f;
          DotAndNorm2(qptrs[j], y.data(), n, &sdot, &snorm2);
          ASSERT_EQ(dots[j], sdot)
              << VecBackendName(backend) << " n=" << n << " b=" << b
              << " j=" << j;
          ASSERT_EQ(dots[j], Dot(qptrs[j], y.data(), n))
              << VecBackendName(backend) << " n=" << n << " b=" << b
              << " j=" << j;
        }
      }
    }
  }
}

TEST_F(KernelParity, DotAndNorm2MatchesDoubleReference) {
  for (std::size_t n = 1; n <= 257; ++n) {
    const auto x = RandomVec(n, 11 * n);
    const auto y = RandomVec(n, 11 * n + 1);
    double ref_dot = 0.0, ref_norm2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      ref_dot += static_cast<double>(x[i]) * y[i];
      ref_norm2 += static_cast<double>(y[i]) * y[i];
    }
    const float tol = 1e-5f + 1e-6f * static_cast<float>(n);
    for (VecBackend backend : {VecBackend::kAvx2, VecBackend::kScalar}) {
      SetVecBackend(backend);
      float dot = 0.0f, norm2 = 0.0f;
      DotAndNorm2(x.data(), y.data(), n, &dot, &norm2);
      EXPECT_NEAR(dot, ref_dot, tol) << "n=" << n;
      EXPECT_NEAR(norm2, ref_norm2, tol) << "n=" << n;
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
    std::vector<float> x(n), base(n), grad(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.UniformFloat() - 0.5f;
      base[i] = rng.UniformFloat() - 0.5f;
      grad[i] = rng.UniformFloat() - 0.5f;
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
    auto ctx_rel = base, ctx_ref = base;
    auto grad_rel = grad, grad_ref = grad;
    relaxed::FusedGradStep(-0.125f, x.data(), ctx_rel.data(),
                           grad_rel.data(), n);
    scalar::FusedGradStep(-0.125f, x.data(), ctx_ref.data(),
                          grad_ref.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_LE(UlpDiff(y_rel[i], y_ref[i]), 1) << "axpy n=" << n;
      ASSERT_EQ(add_rel[i], add_ref[i]) << "add n=" << n;
      ASSERT_EQ(s_rel[i], s_ref[i]) << "scale n=" << n;
      ASSERT_LE(UlpDiff(ctx_rel[i], ctx_ref[i]), 1) << "fused ctx n=" << n;
      ASSERT_LE(UlpDiff(grad_rel[i], grad_ref[i]), 1) << "fused grad n=" << n;
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
        float sdot = -2.0f;
        float snorm2 = -2.0f;
        relaxed::DotAndNorm2(qptrs[j], y.data(), n, &sdot, &snorm2);
        ASSERT_EQ(dots[j], sdot) << "n=" << n << " b=" << b << " j=" << j;
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

TEST_F(KernelParity, FusedGradStepWithin1Ulp) {
  for (std::size_t n = 1; n <= 257; ++n) {
    const auto center = RandomVec(n, 13 * n);
    auto ctx_simd = RandomVec(n, 13 * n + 1);
    auto ctx_ref = ctx_simd;
    auto grad_simd = RandomVec(n, 13 * n + 2);
    auto grad_ref = grad_simd;
    SetVecBackend(VecBackend::kAvx2);
    FusedGradStep(-0.125f, center.data(), ctx_simd.data(), grad_simd.data(),
                  n);
    scalar::FusedGradStep(-0.125f, center.data(), ctx_ref.data(),
                          grad_ref.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_LE(UlpDiff(ctx_simd[i], ctx_ref[i]), 1)
          << "n=" << n << " i=" << i;
      ASSERT_LE(UlpDiff(grad_simd[i], grad_ref[i]), 1)
          << "n=" << n << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace actor
