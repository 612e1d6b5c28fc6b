#include "util/vec_math.h"

#include <cstring>

#include "util/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#define ACTOR_VEC_X86 1
#include <immintrin.h>
#endif

namespace actor {

namespace {

// Eqs. (8)-(10) coefficient of one row: (1 - score) * lr for the positive
// row, -score * lr for a negative, the same float operations as the per-row
// reference the parity tests compose. Only called from code built for the
// baseline ISA: inlined into an FMA-target function, GCC's default
// -ffp-contract=fast would fuse the SigmoidTable lerp into an FMA and
// change the model bits.
inline float StepCoefficient(const SigmoidTable& sigmoid, float dot,
                             bool positive, float lr) {
  const float score = sigmoid(dot);
  const float g = positive ? (1.0f - score) * lr : -score * lr;
  ACTOR_DCHECK_FINITE(g);
  return g;
}

// The strictly in-order negative-sampling step: each row's dot product
// sees every earlier row's update. This is the whole scalar and relaxed
// kernel, and the AVX2 kernel's path when rows repeat or alias the center.
template <float (*DotFn)(const float*, const float*, std::size_t),
          void (*StepFn)(float, const float*, float*, float*, std::size_t)>
void InOrderSteps(const float* center, float* const* rows, std::size_t n_rows,
                  bool first_positive, float lr, const SigmoidTable& sigmoid,
                  float* grad, std::size_t dim) {
  for (std::size_t k = 0; k < n_rows; ++k) {
    const float g = StepCoefficient(sigmoid, DotFn(center, rows[k], dim),
                                    first_positive && k == 0, lr);
    StepFn(g, center, rows[k], grad, dim);
  }
}

}  // namespace

// --------------------------------------------------------------------------
// Scalar reference kernels. Simple loops that GCC/Clang auto-vectorize at
// the baseline ISA; also the ground truth for the SIMD parity tests.
// --------------------------------------------------------------------------

namespace scalar {

float Dot(const float* x, const float* y, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

void Axpy(float a, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

void Scale(float a, float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= a;
}

void Add(const float* x, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] += x[i];
}

float Norm2(const float* x, std::size_t n) { return std::sqrt(Dot(x, x, n)); }

void DotAndNorm2(const float* x, const float* y, std::size_t n, float* dot,
                 float* y_norm2) {
  // Two independent accumulator chains in one pass; each sees exactly the
  // addend sequence its stand-alone Dot() loop would, so results are
  // bit-identical to Dot(x, y, n) and Dot(y, y, n).
  float acc = 0.0f;
  float nn = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float yv = y[i];
    acc += x[i] * yv;
    nn += yv * yv;
  }
  *dot = acc;
  *y_norm2 = nn;
}

void DotAndNorm2Batch(const float* const* queries, std::size_t b,
                      const float* y, std::size_t n, float* dots,
                      float* y_norm2) {
  // The norm chain is its own pass in the same addend order as Dot(y, y, n)
  // (and DotAndNorm2's nn chain), so the result is bit-identical.
  float nn = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float yv = y[i];
    nn += yv * yv;
  }
  *y_norm2 = nn;
  // Queries in register blocks of four sharing each y load; every query
  // keeps an independent accumulator chain in i order, so dots[j] is
  // bit-identical to Dot(queries[j], y, n).
  std::size_t j = 0;
  for (; j + 4 <= b; j += 4) {
    const float* q0 = queries[j];
    const float* q1 = queries[j + 1];
    const float* q2 = queries[j + 2];
    const float* q3 = queries[j + 3];
    float a0 = 0.0f;
    float a1 = 0.0f;
    float a2 = 0.0f;
    float a3 = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
      const float yv = y[i];
      a0 += q0[i] * yv;
      a1 += q1[i] * yv;
      a2 += q2[i] * yv;
      a3 += q3[i] * yv;
    }
    dots[j] = a0;
    dots[j + 1] = a1;
    dots[j + 2] = a2;
    dots[j + 3] = a3;
  }
  for (; j < b; ++j) dots[j] = Dot(queries[j], y, n);
}

void FusedGradStep(float g, const float* center, float* ctx, float* grad,
                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float c = ctx[i];
    grad[i] += g * c;
    ctx[i] = c + g * center[i];
  }
}

void NegativeSamplingStep(const float* center, float* const* ctx_rows,
                          std::size_t n_rows, bool first_positive, float lr,
                          const SigmoidTable& sigmoid, float* grad,
                          std::size_t dim) {
  InOrderSteps<Dot, FusedGradStep>(center, ctx_rows, n_rows, first_positive,
                                   lr, sigmoid, grad, dim);
}

}  // namespace scalar

// --------------------------------------------------------------------------
// Relaxed-atomic kernels: the scalar loops with every load/store routed
// through the RelaxedLoad/RelaxedStore accessors. In ACTOR_TSAN builds the
// accessors are relaxed std::atomic_ref operations, which is what makes
// the HOGWILD trainers race-clean under ThreadSanitizer; elsewhere they
// are plain memory accesses and these functions are bit-identical to
// scalar:: (same iteration order, no FMA contraction differences).
// --------------------------------------------------------------------------

namespace relaxed {

float Dot(const float* x, const float* y, std::size_t n) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    acc += RelaxedLoad(x + i) * RelaxedLoad(y + i);
  }
  return acc;
}

void Axpy(float a, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    RelaxedStore(y + i, RelaxedLoad(y + i) + a * RelaxedLoad(x + i));
  }
}

void Scale(float a, float* x, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    RelaxedStore(x + i, a * RelaxedLoad(x + i));
  }
}

void Add(const float* x, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    RelaxedStore(out + i, RelaxedLoad(out + i) + RelaxedLoad(x + i));
  }
}

float Norm2(const float* x, std::size_t n) { return std::sqrt(Dot(x, x, n)); }

void DotAndNorm2(const float* x, const float* y, std::size_t n, float* dot,
                 float* y_norm2) {
  float acc = 0.0f;
  float nn = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float yv = RelaxedLoad(y + i);
    acc += RelaxedLoad(x + i) * yv;
    nn += yv * yv;
  }
  *dot = acc;
  *y_norm2 = nn;
}

void DotAndNorm2Batch(const float* const* queries, std::size_t b,
                      const float* y, std::size_t n, float* dots,
                      float* y_norm2) {
  float nn = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float yv = RelaxedLoad(y + i);
    nn += yv * yv;
  }
  *y_norm2 = nn;
  std::size_t j = 0;
  for (; j + 4 <= b; j += 4) {
    const float* q0 = queries[j];
    const float* q1 = queries[j + 1];
    const float* q2 = queries[j + 2];
    const float* q3 = queries[j + 3];
    float a0 = 0.0f;
    float a1 = 0.0f;
    float a2 = 0.0f;
    float a3 = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
      const float yv = RelaxedLoad(y + i);
      a0 += RelaxedLoad(q0 + i) * yv;
      a1 += RelaxedLoad(q1 + i) * yv;
      a2 += RelaxedLoad(q2 + i) * yv;
      a3 += RelaxedLoad(q3 + i) * yv;
    }
    dots[j] = a0;
    dots[j + 1] = a1;
    dots[j + 2] = a2;
    dots[j + 3] = a3;
  }
  for (; j < b; ++j) dots[j] = Dot(queries[j], y, n);
}

void FusedGradStep(float g, const float* center, float* ctx, float* grad,
                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float c = RelaxedLoad(ctx + i);
    RelaxedStore(grad + i, RelaxedLoad(grad + i) + g * c);
    RelaxedStore(ctx + i, c + g * RelaxedLoad(center + i));
  }
}

void NegativeSamplingStep(const float* center, float* const* ctx_rows,
                          std::size_t n_rows, bool first_positive, float lr,
                          const SigmoidTable& sigmoid, float* grad,
                          std::size_t dim) {
  InOrderSteps<Dot, FusedGradStep>(center, ctx_rows, n_rows, first_positive,
                                   lr, sigmoid, grad, dim);
}

}  // namespace relaxed

// --------------------------------------------------------------------------
// AVX2+FMA kernels. Compiled with per-function target attributes so the
// translation unit builds at the baseline ISA and these bodies are only
// executed after the CPUID check below passes. Rows of EmbeddingMatrix are
// 32-byte aligned with padded stride, but callers may also pass arbitrary
// stack buffers, so all loads/stores are unaligned ops (same throughput as
// aligned ops on every AVX2 core when the address is in fact aligned).
// --------------------------------------------------------------------------

#ifdef ACTOR_VEC_X86
namespace avx2 {

#define ACTOR_AVX2_TARGET __attribute__((target("avx2,fma")))

ACTOR_AVX2_TARGET static inline float HorizontalSum(__m256 v) {
  const __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  __m128 s = _mm_add_ps(lo, hi);
  s = _mm_add_ps(s, _mm_movehl_ps(s, s));
  s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 0x55));
  return _mm_cvtss_f32(s);
}

ACTOR_AVX2_TARGET float Dot(const float* x, const float* y, std::size_t n) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i),
                           acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 8),
                           _mm256_loadu_ps(y + i + 8), acc1);
  }
  if (i + 8 <= n) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), _mm256_loadu_ps(y + i),
                           acc0);
    i += 8;
  }
  float acc = HorizontalSum(_mm256_add_ps(acc0, acc1));
  for (; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

ACTOR_AVX2_TARGET void Axpy(float a, const float* x, float* y,
                            std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        y + i, _mm256_fmadd_ps(va, _mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(y + i)));
  }
  for (; i < n; ++i) y[i] = std::fma(a, x[i], y[i]);
}

ACTOR_AVX2_TARGET void Scale(float a, float* x, std::size_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(va, _mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) x[i] *= a;
}

ACTOR_AVX2_TARGET void Add(const float* x, float* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(x + i),
                               _mm256_loadu_ps(out + i)));
  }
  for (; i < n; ++i) out[i] += x[i];
}

ACTOR_AVX2_TARGET float Norm2(const float* x, std::size_t n) {
  return std::sqrt(Dot(x, x, n));
}

// Two dot products sharing each load of y: out[0] = Dot(qa, y, n) and
// out[1] = Dot(qb, y, n). Each chain and its scalar tail replicate Dot()'s
// dual-accumulator 16-wide structure exactly, so both are bit-identical to
// the stand-alone Dot() (which is symmetric in its arguments: the products
// and FMAs are).
ACTOR_AVX2_TARGET static inline void DotPair(const float* y, const float* qa,
                                             const float* qb, std::size_t n,
                                             float* out) {
  __m256 a0 = _mm256_setzero_ps();
  __m256 a1 = _mm256_setzero_ps();
  __m256 b0 = _mm256_setzero_ps();
  __m256 b1 = _mm256_setzero_ps();
  std::size_t t = 0;
  for (; t + 16 <= n; t += 16) {
    const __m256 ylo = _mm256_loadu_ps(y + t);
    const __m256 yhi = _mm256_loadu_ps(y + t + 8);
    a0 = _mm256_fmadd_ps(_mm256_loadu_ps(qa + t), ylo, a0);
    a1 = _mm256_fmadd_ps(_mm256_loadu_ps(qa + t + 8), yhi, a1);
    b0 = _mm256_fmadd_ps(_mm256_loadu_ps(qb + t), ylo, b0);
    b1 = _mm256_fmadd_ps(_mm256_loadu_ps(qb + t + 8), yhi, b1);
  }
  if (t + 8 <= n) {
    const __m256 yv = _mm256_loadu_ps(y + t);
    a0 = _mm256_fmadd_ps(_mm256_loadu_ps(qa + t), yv, a0);
    b0 = _mm256_fmadd_ps(_mm256_loadu_ps(qb + t), yv, b0);
    t += 8;
  }
  float acc_a = HorizontalSum(_mm256_add_ps(a0, a1));
  float acc_b = HorizontalSum(_mm256_add_ps(b0, b1));
  // Separate single-chain tail loops: a shared loop would let the
  // compiler contract the two chains' mul+add differently from Dot()'s
  // tail, breaking bit-identity.
  for (std::size_t ta = t; ta < n; ++ta) acc_a += qa[ta] * y[ta];
  for (std::size_t tb = t; tb < n; ++tb) acc_b += qb[tb] * y[tb];
  out[0] = acc_a;
  out[1] = acc_b;
}

ACTOR_AVX2_TARGET void DotAndNorm2(const float* x, const float* y,
                                   std::size_t n, float* dot,
                                   float* y_norm2) {
  // Mirrors Dot()'s dual-accumulator 16-wide structure for both chains, so
  // each result is bit-identical to the corresponding stand-alone Dot().
  __m256 d0 = _mm256_setzero_ps();
  __m256 d1 = _mm256_setzero_ps();
  __m256 n0 = _mm256_setzero_ps();
  __m256 n1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 ylo = _mm256_loadu_ps(y + i);
    const __m256 yhi = _mm256_loadu_ps(y + i + 8);
    d0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), ylo, d0);
    d1 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i + 8), yhi, d1);
    n0 = _mm256_fmadd_ps(ylo, ylo, n0);
    n1 = _mm256_fmadd_ps(yhi, yhi, n1);
  }
  if (i + 8 <= n) {
    const __m256 yv = _mm256_loadu_ps(y + i);
    d0 = _mm256_fmadd_ps(_mm256_loadu_ps(x + i), yv, d0);
    n0 = _mm256_fmadd_ps(yv, yv, n0);
    i += 8;
  }
  float acc = HorizontalSum(_mm256_add_ps(d0, d1));
  float nn = HorizontalSum(_mm256_add_ps(n0, n1));
  for (; i < n; ++i) {
    const float yv = y[i];
    acc += x[i] * yv;
    nn += yv * yv;
  }
  *dot = acc;
  *y_norm2 = nn;
}

ACTOR_AVX2_TARGET void DotAndNorm2Batch(const float* const* queries,
                                        std::size_t b, const float* y,
                                        std::size_t n, float* dots,
                                        float* y_norm2) {
  // Norm chain first, mirroring DotAndNorm2's n0/n1 structure — identical
  // to Dot(y, y, n) bit for bit.
  __m256 n0 = _mm256_setzero_ps();
  __m256 n1 = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 ylo = _mm256_loadu_ps(y + i);
    const __m256 yhi = _mm256_loadu_ps(y + i + 8);
    n0 = _mm256_fmadd_ps(ylo, ylo, n0);
    n1 = _mm256_fmadd_ps(yhi, yhi, n1);
  }
  if (i + 8 <= n) {
    const __m256 yv = _mm256_loadu_ps(y + i);
    n0 = _mm256_fmadd_ps(yv, yv, n0);
    i += 8;
  }
  float nn = HorizontalSum(_mm256_add_ps(n0, n1));
  for (; i < n; ++i) {
    const float yv = y[i];
    nn += yv * yv;
  }
  *y_norm2 = nn;
  std::size_t j = 0;
  for (; j + 2 <= b; j += 2) {
    DotPair(y, queries[j], queries[j + 1], n, dots + j);
  }
  if (j < b) dots[j] = Dot(queries[j], y, n);
}

ACTOR_AVX2_TARGET void FusedGradStep(float g, const float* center, float* ctx,
                                     float* grad, std::size_t n) {
  const __m256 vg = _mm256_set1_ps(g);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 c = _mm256_loadu_ps(ctx + i);
    _mm256_storeu_ps(grad + i,
                     _mm256_fmadd_ps(vg, c, _mm256_loadu_ps(grad + i)));
    _mm256_storeu_ps(
        ctx + i, _mm256_fmadd_ps(vg, _mm256_loadu_ps(center + i), c));
  }
  for (; i < n; ++i) {
    const float c = ctx[i];
    grad[i] = std::fma(g, c, grad[i]);
    ctx[i] = std::fma(g, center[i], c);
  }
}

// dots[k] = Dot(center, rows[k], n) for k < b, rows taken in pairs that
// share each center load.
ACTOR_AVX2_TARGET static void DotRows(const float* center,
                                      float* const* rows, std::size_t b,
                                      std::size_t n, float* dots) {
  std::size_t k = 0;
  for (; k + 2 <= b; k += 2) DotPair(center, rows[k], rows[k + 1], n, dots + k);
  if (k < b) dots[k] = Dot(center, rows[k], n);
}

// FusedGradStep(coef[k], center, rows[k], grad, n) for k = 0..b-1, with the
// loops interchanged: each 32-wide block (then each 8-wide slice) of center
// and grad stays in registers across all rows, and grad is stored once per
// block. Every element sees the same FMA sequence in the same row order, so
// the result is bit-identical to the row-by-row calls when the rows are
// pairwise distinct and none of them is center.
ACTOR_AVX2_TARGET static void UpdateRows(const float* center,
                                         float* const* rows, std::size_t b,
                                         const float* coef, float* grad,
                                         std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256 c0 = _mm256_loadu_ps(center + i);
    const __m256 c1 = _mm256_loadu_ps(center + i + 8);
    const __m256 c2 = _mm256_loadu_ps(center + i + 16);
    const __m256 c3 = _mm256_loadu_ps(center + i + 24);
    __m256 a0 = _mm256_loadu_ps(grad + i);
    __m256 a1 = _mm256_loadu_ps(grad + i + 8);
    __m256 a2 = _mm256_loadu_ps(grad + i + 16);
    __m256 a3 = _mm256_loadu_ps(grad + i + 24);
    for (std::size_t k = 0; k < b; ++k) {
      const __m256 vg = _mm256_set1_ps(coef[k]);
      float* const r = rows[k] + i;
      const __m256 r0 = _mm256_loadu_ps(r);
      const __m256 r1 = _mm256_loadu_ps(r + 8);
      const __m256 r2 = _mm256_loadu_ps(r + 16);
      const __m256 r3 = _mm256_loadu_ps(r + 24);
      a0 = _mm256_fmadd_ps(vg, r0, a0);
      a1 = _mm256_fmadd_ps(vg, r1, a1);
      a2 = _mm256_fmadd_ps(vg, r2, a2);
      a3 = _mm256_fmadd_ps(vg, r3, a3);
      _mm256_storeu_ps(r, _mm256_fmadd_ps(vg, c0, r0));
      _mm256_storeu_ps(r + 8, _mm256_fmadd_ps(vg, c1, r1));
      _mm256_storeu_ps(r + 16, _mm256_fmadd_ps(vg, c2, r2));
      _mm256_storeu_ps(r + 24, _mm256_fmadd_ps(vg, c3, r3));
    }
    _mm256_storeu_ps(grad + i, a0);
    _mm256_storeu_ps(grad + i + 8, a1);
    _mm256_storeu_ps(grad + i + 16, a2);
    _mm256_storeu_ps(grad + i + 24, a3);
  }
  for (; i + 8 <= n; i += 8) {
    const __m256 c = _mm256_loadu_ps(center + i);
    __m256 acc = _mm256_loadu_ps(grad + i);
    for (std::size_t k = 0; k < b; ++k) {
      const __m256 vg = _mm256_set1_ps(coef[k]);
      const __m256 r = _mm256_loadu_ps(rows[k] + i);
      acc = _mm256_fmadd_ps(vg, r, acc);
      _mm256_storeu_ps(rows[k] + i, _mm256_fmadd_ps(vg, c, r));
    }
    _mm256_storeu_ps(grad + i, acc);
  }
  for (; i < n; ++i) {
    const float c = center[i];
    float acc = grad[i];
    for (std::size_t k = 0; k < b; ++k) {
      const float r = rows[k][i];
      acc = std::fma(coef[k], r, acc);
      rows[k][i] = std::fma(coef[k], c, r);
    }
    grad[i] = acc;
  }
}

// True when no two of center, rows[0..b) are the same row.
static bool RowsDistinct(const float* center, float* const* rows,
                         std::size_t b) {
  for (std::size_t k = 0; k < b; ++k) {
    if (rows[k] == center) return false;
    for (std::size_t j = 0; j < k; ++j) {
      if (rows[j] == rows[k]) return false;
    }
  }
  return true;
}

// Built for the baseline ISA on purpose (no ACTOR_AVX2_TARGET): the
// coefficients go through StepCoefficient between the two FMA-target
// passes. When the rows are pairwise distinct no update can feed a later
// dot product, so every dot is computed before the first update. A
// repeated row (or the center among the rows) takes the strictly in-order
// path.
void NegativeSamplingStep(const float* center, float* const* ctx_rows,
                          std::size_t n_rows, bool first_positive, float lr,
                          const SigmoidTable& sigmoid, float* grad,
                          std::size_t dim) {
  if (!RowsDistinct(center, ctx_rows, n_rows)) {
    InOrderSteps<Dot, FusedGradStep>(center, ctx_rows, n_rows, first_positive,
                                     lr, sigmoid, grad, dim);
    return;
  }
  float coef[kMaxStepRows] = {};
  DotRows(center, ctx_rows, n_rows, dim, coef);
  for (std::size_t k = 0; k < n_rows; ++k) {
    coef[k] = StepCoefficient(sigmoid, coef[k], first_positive && k == 0, lr);
  }
  UpdateRows(center, ctx_rows, n_rows, coef, grad, dim);
}

#undef ACTOR_AVX2_TARGET

}  // namespace avx2
#endif  // ACTOR_VEC_X86

// --------------------------------------------------------------------------
// Runtime dispatch. Function pointers are installed before main() by a
// static initializer in this TU; SetVecBackend re-points them (benchmarks
// and parity tests only).
// --------------------------------------------------------------------------

namespace {

struct KernelTable {
  float (*dot)(const float*, const float*, std::size_t);
  void (*axpy)(float, const float*, float*, std::size_t);
  void (*scale)(float, float*, std::size_t);
  void (*add)(const float*, float*, std::size_t);
  float (*norm2)(const float*, std::size_t);
  void (*dot_norm2)(const float*, const float*, std::size_t, float*, float*);
  void (*dot_norm2_batch)(const float* const*, std::size_t, const float*,
                          std::size_t, float*, float*);
  void (*fused)(float, const float*, float*, float*, std::size_t);
  void (*ns_step)(const float*, float* const*, std::size_t, bool, float,
                  const SigmoidTable&, float*, std::size_t);
};

// One table per backend; every kernel namespace defines the same names.
#define ACTOR_KERNEL_TABLE(ns)                                           \
  KernelTable {                                                          \
    &ns::Dot, &ns::Axpy, &ns::Scale, &ns::Add, &ns::Norm2,               \
        &ns::DotAndNorm2, &ns::DotAndNorm2Batch, &ns::FusedGradStep,     \
        &ns::NegativeSamplingStep                                        \
  }
constexpr KernelTable kScalarKernels = ACTOR_KERNEL_TABLE(scalar);
constexpr KernelTable kRelaxedKernels = ACTOR_KERNEL_TABLE(relaxed);
#ifdef ACTOR_VEC_X86
constexpr KernelTable kAvx2Kernels = ACTOR_KERNEL_TABLE(avx2);
#endif
#undef ACTOR_KERNEL_TABLE

KernelTable g_kernels = kScalarKernels;
VecBackend g_backend = VecBackend::kScalar;

struct DispatchInit {
  DispatchInit() { SetVecBackend(VecBackend::kAvx2); }
};
DispatchInit g_dispatch_init;

}  // namespace

bool Avx2Available() {
#ifdef ACTOR_VEC_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

VecBackend ActiveVecBackend() { return g_backend; }

const char* VecBackendName(VecBackend backend) {
  switch (backend) {
    case VecBackend::kScalar:
      return "scalar";
    case VecBackend::kRelaxed:
      return "relaxed";
    case VecBackend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

VecBackend SetVecBackend(VecBackend backend) {
#if defined(ACTOR_TSAN)
  // Under ThreadSanitizer only the relaxed-atomic kernels are installed:
  // the SIMD intrinsics (and plain scalar loops) would surface the
  // intentional HOGWILD races as reports. Requests for any backend land on
  // kRelaxed so existing benchmarks/tests keep working in TSan builds.
  backend = VecBackend::kRelaxed;
#endif
#ifdef ACTOR_VEC_X86
  if (backend == VecBackend::kAvx2 && Avx2Available()) {
    g_kernels = kAvx2Kernels;
    g_backend = VecBackend::kAvx2;
    return g_backend;
  }
#endif
  if (backend == VecBackend::kRelaxed) {
    g_kernels = kRelaxedKernels;
    g_backend = VecBackend::kRelaxed;
    return g_backend;
  }
  g_kernels = kScalarKernels;
  g_backend = VecBackend::kScalar;
  return g_backend;
}

float Dot(const float* x, const float* y, std::size_t n) {
  return g_kernels.dot(x, y, n);
}

void Axpy(float a, const float* x, float* y, std::size_t n) {
  g_kernels.axpy(a, x, y, n);
}

void Scale(float a, float* x, std::size_t n) { g_kernels.scale(a, x, n); }

void Copy(const float* x, float* out, std::size_t n) {
  std::memcpy(out, x, n * sizeof(float));
}

void Add(const float* x, float* out, std::size_t n) {
  g_kernels.add(x, out, n);
}

void Zero(float* x, std::size_t n) { std::memset(x, 0, n * sizeof(float)); }

float Norm2(const float* x, std::size_t n) { return g_kernels.norm2(x, n); }

void NormalizeInPlace(float* x, std::size_t n) {
  const float norm = Norm2(x, n);
  if (norm > 0.0f) Scale(1.0f / norm, x, n);
}

float Cosine(const float* x, const float* y, std::size_t n) {
  const float nx = Norm2(x, n);
  const float ny = Norm2(y, n);
  if (nx == 0.0f || ny == 0.0f) return 0.0f;
  return Dot(x, y, n) / (nx * ny);
}

void DotAndNorm2(const float* x, const float* y, std::size_t n, float* dot,
                 float* y_norm2) {
  g_kernels.dot_norm2(x, y, n, dot, y_norm2);
}

void DotAndNorm2Batch(const float* const* queries, std::size_t b,
                      const float* y, std::size_t n, float* dots,
                      float* y_norm2) {
  g_kernels.dot_norm2_batch(queries, b, y, n, dots, y_norm2);
}

void FusedGradStep(float g, const float* center, float* ctx, float* grad,
                   std::size_t n) {
  g_kernels.fused(g, center, ctx, grad, n);
}

void NegativeSamplingStep(const float* center, float* const* ctx_rows,
                          std::size_t n_rows, bool first_positive, float lr,
                          const SigmoidTable& sigmoid, float* grad,
                          std::size_t dim) {
  ACTOR_DCHECK(n_rows <= kMaxStepRows);
  g_kernels.ns_step(center, ctx_rows, n_rows, first_positive, lr, sigmoid,
                    grad, dim);
}

SigmoidTable::SigmoidTable() {
  for (int i = 0; i < kTableSize + 2; ++i) {
    const float x = -kBound + static_cast<float>(i) / kScale;
    table_[i] = Sigmoid(x);
  }
}

}  // namespace actor
