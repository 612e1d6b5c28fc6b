#include "util/vec_math.h"

#include <cstring>

#include "util/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#define ACTOR_VEC_X86 1
#include <immintrin.h>
#endif

namespace actor {

namespace {

// SharedNegativeBlock keeps step b's coefficients at coefs[b * (1 + K)]:
// the positive's first, then the K negatives' in draw order. The dot
// passes write the raw dot products there, a sigmoid pass turns them into
// scores and this pass into coefficients, all in place: (1 - score) * lr
// for the positive, -score * lr for a negative. A negative that is the
// step's own positive row gets 0: a row is never its own negative.
void ScoresToCoefficients(float* const* positives, std::size_t n_steps,
                          float* const* negatives, std::size_t n_negatives,
                          float lr, float* coefs) {
  const std::size_t stride = 1 + n_negatives;
  for (std::size_t b = 0; b < n_steps; ++b) {
    float* g = coefs + b * stride;
    g[0] = (1.0f - g[0]) * lr;
    ACTOR_DCHECK_FINITE(g[0]);
    for (std::size_t k = 0; k < n_negatives; ++k) {
      g[1 + k] = negatives[k] == positives[b] ? 0.0f : -g[1 + k] * lr;
      ACTOR_DCHECK_FINITE(g[1 + k]);
    }
  }
}

// Dots to coefficients with the scalar sigmoid (scalar and relaxed).
void BlockCoefficients(float* const* positives, std::size_t n_steps,
                       float* const* negatives, std::size_t n_negatives,
                       float lr, const SigmoidTable& sigmoid, float* coefs) {
  const std::size_t total = n_steps * (1 + n_negatives);
  for (std::size_t q = 0; q < total; ++q) coefs[q] = sigmoid(coefs[q]);
  ScoresToCoefficients(positives, n_steps, negatives, n_negatives, lr, coefs);
}

inline float PlainLoad(const float* p) { return *p; }
inline void PlainStore(float* p, float v) { *p = v; }

// The raw dots of a SharedNegativeBlock call: the scalar and relaxed
// bodies. A step's rows (its positive, then the negatives) go four at a
// time, sharing each load of C_b. Each row keeps its own accumulator chain
// in element order, so every dot is bit-identical to that backend's Dot().
template <float (*Load)(const float*)>
void BlockDotsWith(float* const* centers, float* const* positives,
                   std::size_t n_steps, float* const* negatives,
                   std::size_t n_negatives, float* coefs, std::size_t dim) {
  const std::size_t stride = 1 + n_negatives;
  for (std::size_t b = 0; b < n_steps; ++b) {
    const float* c = centers[b];
    float* out = coefs + b * stride;
    // Row j of the step: the positive for j == 0, else negatives[j - 1].
    auto row = [&](std::size_t j) -> const float* {
      return j == 0 ? positives[b] : negatives[j - 1];
    };
    std::size_t j = 0;
    for (; j + 4 <= stride; j += 4) {
      const float* r0 = row(j);
      const float* r1 = row(j + 1);
      const float* r2 = row(j + 2);
      const float* r3 = row(j + 3);
      float a0 = 0.0f;
      float a1 = 0.0f;
      float a2 = 0.0f;
      float a3 = 0.0f;
      for (std::size_t i = 0; i < dim; ++i) {
        const float cv = Load(c + i);
        a0 += cv * Load(r0 + i);
        a1 += cv * Load(r1 + i);
        a2 += cv * Load(r2 + i);
        a3 += cv * Load(r3 + i);
      }
      out[j] = a0;
      out[j + 1] = a1;
      out[j + 2] = a2;
      out[j + 3] = a3;
    }
    for (; j < stride; ++j) {
      const float* r = row(j);
      float acc = 0.0f;
      for (std::size_t i = 0; i < dim; ++i) acc += Load(c + i) * Load(r + i);
      out[j] = acc;
    }
  }
}

// The SharedNegativeBlock row updates, phase by phase over whole rows, in
// the contract's order: the scalar and relaxed bodies. The gradient
// scratch is private, so only the shared rows go through Load/Store.
template <float (*Load)(const float*), void (*Store)(float*, float)>
void BlockUpdatesWith(float* const* centers, float* const* positives,
                  std::size_t n_steps, float* const* negatives,
                  std::size_t n_negatives, const float* coefs, float* grads,
                  std::size_t dim) {
  const std::size_t stride = 1 + n_negatives;
  for (std::size_t b = 0; b < n_steps; ++b) {
    const float* g = coefs + b * stride;
    float* grad = grads + b * dim;
    for (std::size_t i = 0; i < dim; ++i) {
      grad[i] = 0.0f + g[0] * Load(positives[b] + i);
    }
    for (std::size_t k = 0; k < n_negatives; ++k) {
      for (std::size_t i = 0; i < dim; ++i) {
        grad[i] += g[1 + k] * Load(negatives[k] + i);
      }
    }
  }
  for (std::size_t k = 0; k < n_negatives; ++k) {
    for (std::size_t b = 0; b < n_steps; ++b) {
      const float g = coefs[b * stride + 1 + k];
      for (std::size_t i = 0; i < dim; ++i) {
        Store(negatives[k] + i,
              Load(negatives[k] + i) + g * Load(centers[b] + i));
      }
    }
  }
  for (std::size_t b = 0; b < n_steps; ++b) {
    const float g = coefs[b * stride];
    for (std::size_t i = 0; i < dim; ++i) {
      Store(positives[b] + i,
            Load(positives[b] + i) + g * Load(centers[b] + i));
    }
  }
  for (std::size_t b = 0; b < n_steps; ++b) {
    const float* grad = grads + b * dim;
    for (std::size_t i = 0; i < dim; ++i) {
      Store(centers[b] + i, Load(centers[b] + i) + grad[i]);
    }
  }
}

// True when no center of a SharedNegativeBlock call is also one of its
// context rows (the DCHECK in the dispatch wrapper).
bool CentersDisjointFromContext(float* const* centers, float* const* positives,
                                std::size_t n_steps, float* const* negatives,
                                std::size_t n_negatives) {
  for (std::size_t b = 0; b < n_steps; ++b) {
    for (std::size_t j = 0; j < n_steps; ++j) {
      if (centers[b] == positives[j]) return false;
    }
    for (std::size_t k = 0; k < n_negatives; ++k) {
      if (centers[b] == negatives[k]) return false;
    }
  }
  return true;
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

void DotAndNorm2Batch(const float* const* queries, std::size_t b,
                      const float* y, std::size_t n, float* dots,
                      float* y_norm2) {
  // The norm chain is its own pass in the same addend order as Dot(y, y, n),
  // so the result is bit-identical.
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

void SharedNegativeBlock(float* const* centers, float* const* positives,
                         std::size_t n_steps, float* const* negatives,
                         std::size_t n_negatives, float lr,
                         const SigmoidTable& sigmoid, float* grads,
                         float* coefs, std::size_t dim) {
  BlockDotsWith<PlainLoad>(centers, positives, n_steps, negatives,
                           n_negatives, coefs, dim);
  BlockCoefficients(positives, n_steps, negatives, n_negatives, lr, sigmoid,
                    coefs);
  BlockUpdatesWith<PlainLoad, PlainStore>(centers, positives, n_steps,
                                          negatives, n_negatives, coefs, grads,
                                          dim);
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

void SharedNegativeBlock(float* const* centers, float* const* positives,
                         std::size_t n_steps, float* const* negatives,
                         std::size_t n_negatives, float lr,
                         const SigmoidTable& sigmoid, float* grads,
                         float* coefs, std::size_t dim) {
  BlockDotsWith<RelaxedLoad>(centers, positives, n_steps, negatives,
                             n_negatives, coefs, dim);
  BlockCoefficients(positives, n_steps, negatives, n_negatives, lr, sigmoid,
                    coefs);
  BlockUpdatesWith<RelaxedLoad, RelaxedStore>(centers, positives, n_steps,
                                              negatives, n_negatives, coefs,
                                              grads, dim);
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

// BlockCoefficients for the AVX2 SharedNegativeBlock body, eight
// coefficients at a time. Each lane runs SigmoidTable::operator() on the
// one table: clamp to +-kBound (so both gather indices stay inside it),
// the same add, multiply, truncation and fraction, two gathers and the
// same mul/mul/add lerp, then 1 at or above the bound and +0 at or below
// it. The target has AVX2 but not FMA, so GCC cannot contract the lerp
// and every lane rounds as the scalar table does. A lane q is a positive
// row when q % (1 + K) == 0; tail lanes take the scalar table.
__attribute__((target("avx2"))) void BlockCoefficientsAvx2(
    const SigmoidTable& sigmoid, float* const* positives, std::size_t n_steps,
    float* const* negatives, std::size_t n_negatives, float lr,
    float* coefs) {
  const std::size_t stride = 1 + n_negatives;
  const std::size_t total = n_steps * stride;
  // The clamp maps NaN to -kBound, where the scalar table's cast would
  // trip float-cast-overflow in sanitizer builds; check the dots instead.
  for (std::size_t q = 0; q < total; ++q) ACTOR_DCHECK_FINITE(coefs[q]);
  const __m256 bound = _mm256_set1_ps(SigmoidTable::kBound);
  const __m256 neg_bound = _mm256_set1_ps(-SigmoidTable::kBound);
  const __m256 scale = _mm256_set1_ps(SigmoidTable::kScale);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 vlr = _mm256_set1_ps(lr);
  // rem holds q % stride for each lane of the current eight. A running
  // lane counter fills it, so a call does no integer division; after the
  // eight lanes the counter is 8 % stride.
  int first[8] = {};
  int lane = 0;
  for (int& r : first) {
    r = lane;
    if (++lane == static_cast<int>(stride)) lane = 0;
  }
  __m256i rem = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(first));
  const __m256i advance = _mm256_set1_epi32(lane);
  const __m256i wrap = _mm256_set1_epi32(static_cast<int>(stride));
  const __m256i last = _mm256_set1_epi32(static_cast<int>(stride - 1));
  std::size_t q = 0;
  for (; q + 8 <= total; q += 8) {
    const __m256 x = _mm256_loadu_ps(coefs + q);
    const __m256 clamped = _mm256_min_ps(_mm256_max_ps(x, neg_bound), bound);
    const __m256 pos = _mm256_mul_ps(_mm256_add_ps(clamped, bound), scale);
    const __m256i idx = _mm256_cvttps_epi32(pos);
    const __m256 frac = _mm256_sub_ps(pos, _mm256_cvtepi32_ps(idx));
    const __m256 lo = _mm256_i32gather_ps(sigmoid.table_, idx, 4);
    const __m256 hi = _mm256_i32gather_ps(sigmoid.table_ + 1, idx, 4);
    __m256 s = _mm256_add_ps(_mm256_mul_ps(lo, _mm256_sub_ps(one, frac)),
                             _mm256_mul_ps(hi, frac));
    s = _mm256_blendv_ps(s, one, _mm256_cmp_ps(x, bound, _CMP_GE_OQ));
    s = _mm256_andnot_ps(_mm256_cmp_ps(x, neg_bound, _CMP_LE_OQ), s);
    const __m256 positive = _mm256_castsi256_ps(
        _mm256_cmpeq_epi32(rem, _mm256_setzero_si256()));
    const __m256 c = _mm256_blendv_ps(_mm256_xor_ps(s, sign),
                                      _mm256_sub_ps(one, s), positive);
    _mm256_storeu_ps(coefs + q, _mm256_mul_ps(c, vlr));
    rem = _mm256_add_epi32(rem, advance);
    rem = _mm256_sub_epi32(
        rem, _mm256_and_si256(_mm256_cmpgt_epi32(rem, last), wrap));
  }
  // Lane 0 of rem is q % stride for the first tail coefficient.
  for (std::size_t r = static_cast<std::size_t>(_mm256_cvtsi256_si32(rem));
       q < total; ++q) {
    const float s = sigmoid(coefs[q]);
    coefs[q] = r == 0 ? (1.0f - s) * lr : -s * lr;
    if (++r == stride) r = 0;
  }
  // A row is never its own negative.
  for (std::size_t b = 0; b < n_steps; ++b) {
    float* g = coefs + b * stride;
    ACTOR_DCHECK_FINITE(g[0]);
    for (std::size_t k = 0; k < n_negatives; ++k) {
      if (negatives[k] == positives[b]) g[1 + k] = 0.0f;
      ACTOR_DCHECK_FINITE(g[1 + k]);
    }
  }
}

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

ACTOR_AVX2_TARGET void DotAndNorm2Batch(const float* const* queries,
                                        std::size_t b, const float* y,
                                        std::size_t n, float* dots,
                                        float* y_norm2) {
  // Norm chain first, mirroring Dot()'s dual-accumulator 16-wide structure
  // — identical to Dot(y, y, n) bit for bit.
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

// The raw dots of a SharedNegativeBlock call, each bit-identical to Dot():
// step b's rows (its positive, then the negatives) go through DotPair in
// pairs sharing each load of C_b.
ACTOR_AVX2_TARGET static void BlockDots(float* const* centers,
                                        float* const* positives,
                                        std::size_t n_steps,
                                        float* const* negatives,
                                        std::size_t n_negatives, float* coefs,
                                        std::size_t n) {
  const std::size_t stride = 1 + n_negatives;
  for (std::size_t b = 0; b < n_steps; ++b) {
    const float* c = centers[b];
    float* out = coefs + b * stride;
    DotPair(c, positives[b], negatives[0], n, out);
    std::size_t k = 1;
    for (; k + 2 <= n_negatives; k += 2) {
      DotPair(c, negatives[k], negatives[k + 1], n, out + 1 + k);
    }
    if (k < n_negatives) out[1 + k] = Dot(c, negatives[k], n);
  }
}

// The SharedNegativeBlock row updates on floats [i, i + 8 * S) of every
// row. Every update is elementwise, so the contract's phases can run one
// column block at a time with the block's rows hot in L1: gradients from
// the start values, then the N_k, P_b and C_b writes in the contract's
// order. Each N_k block accumulates in registers across the steps and is
// stored once, one k at a time, so a repeated negative's second
// accumulation starts from the first one's stored result, as the contract
// orders.
template <int S>
ACTOR_AVX2_TARGET static inline void BlockColumns(
    float* const* centers, float* const* positives, std::size_t n_steps,
    float* const* negatives, std::size_t n_negatives, const float* coefs,
    float* grads, std::size_t n, std::size_t i) {
  const std::size_t stride = 1 + n_negatives;
  for (std::size_t b = 0; b < n_steps; ++b) {
    const float* g = coefs + b * stride;
    const float* p = positives[b] + i;
    const __m256 g0 = _mm256_set1_ps(g[0]);
    __m256 acc[S];
#pragma GCC unroll 4
    for (int s = 0; s < S; ++s) {
      acc[s] = _mm256_fmadd_ps(g0, _mm256_loadu_ps(p + 8 * s),
                               _mm256_setzero_ps());
    }
    for (std::size_t k = 0; k < n_negatives; ++k) {
      const __m256 gk = _mm256_set1_ps(g[1 + k]);
      const float* r = negatives[k] + i;
#pragma GCC unroll 4
      for (int s = 0; s < S; ++s) {
        acc[s] = _mm256_fmadd_ps(gk, _mm256_loadu_ps(r + 8 * s), acc[s]);
      }
    }
    float* grad = grads + b * n + i;
#pragma GCC unroll 4
    for (int s = 0; s < S; ++s) _mm256_storeu_ps(grad + 8 * s, acc[s]);
  }
  for (std::size_t k = 0; k < n_negatives; ++k) {
    float* r = negatives[k] + i;
    __m256 a[S];
#pragma GCC unroll 4
    for (int s = 0; s < S; ++s) a[s] = _mm256_loadu_ps(r + 8 * s);
    for (std::size_t b = 0; b < n_steps; ++b) {
      const __m256 g = _mm256_set1_ps(coefs[b * stride + 1 + k]);
      const float* cb = centers[b] + i;
#pragma GCC unroll 4
      for (int s = 0; s < S; ++s) {
        a[s] = _mm256_fmadd_ps(g, _mm256_loadu_ps(cb + 8 * s), a[s]);
      }
    }
#pragma GCC unroll 4
    for (int s = 0; s < S; ++s) _mm256_storeu_ps(r + 8 * s, a[s]);
  }
  for (std::size_t b = 0; b < n_steps; ++b) {
    const __m256 g = _mm256_set1_ps(coefs[b * stride]);
    const float* cb = centers[b] + i;
    float* p = positives[b] + i;
#pragma GCC unroll 4
    for (int s = 0; s < S; ++s) {
      _mm256_storeu_ps(p + 8 * s,
                       _mm256_fmadd_ps(g, _mm256_loadu_ps(cb + 8 * s),
                                       _mm256_loadu_ps(p + 8 * s)));
    }
  }
  for (std::size_t b = 0; b < n_steps; ++b) {
    const float* grad = grads + b * n + i;
    float* cb = centers[b] + i;
#pragma GCC unroll 4
    for (int s = 0; s < S; ++s) {
      _mm256_storeu_ps(cb + 8 * s,
                       _mm256_add_ps(_mm256_loadu_ps(grad + 8 * s),
                                     _mm256_loadu_ps(cb + 8 * s)));
    }
  }
}

// All SharedNegativeBlock row updates: 32-float column blocks, then
// 8-float ones, then a scalar tail that runs the same phases per element.
ACTOR_AVX2_TARGET static void BlockUpdates(
    float* const* centers, float* const* positives, std::size_t n_steps,
    float* const* negatives, std::size_t n_negatives, const float* coefs,
    float* grads, std::size_t n) {
  const std::size_t stride = 1 + n_negatives;
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    BlockColumns<4>(centers, positives, n_steps, negatives, n_negatives, coefs,
                    grads, n, i);
  }
  for (; i + 8 <= n; i += 8) {
    BlockColumns<1>(centers, positives, n_steps, negatives, n_negatives, coefs,
                    grads, n, i);
  }
  for (; i < n; ++i) {
    for (std::size_t b = 0; b < n_steps; ++b) {
      const float* g = coefs + b * stride;
      float acc = std::fma(g[0], positives[b][i], 0.0f);
      for (std::size_t k = 0; k < n_negatives; ++k) {
        acc = std::fma(g[1 + k], negatives[k][i], acc);
      }
      grads[b * n + i] = acc;
    }
    for (std::size_t k = 0; k < n_negatives; ++k) {
      float acc = negatives[k][i];
      for (std::size_t b = 0; b < n_steps; ++b) {
        acc = std::fma(coefs[b * stride + 1 + k], centers[b][i], acc);
      }
      negatives[k][i] = acc;
    }
    for (std::size_t b = 0; b < n_steps; ++b) {
      positives[b][i] =
          std::fma(coefs[b * stride], centers[b][i], positives[b][i]);
    }
    for (std::size_t b = 0; b < n_steps; ++b) {
      centers[b][i] += grads[b * n + i];
    }
  }
}

// Only the dot and update passes may fuse multiplies and adds; the
// coefficient pass is built without FMA, so it rounds as the scalar
// SigmoidTable and coefficient arithmetic do.
void SharedNegativeBlock(float* const* centers, float* const* positives,
                         std::size_t n_steps, float* const* negatives,
                         std::size_t n_negatives, float lr,
                         const SigmoidTable& sigmoid, float* grads,
                         float* coefs, std::size_t dim) {
  BlockDots(centers, positives, n_steps, negatives, n_negatives, coefs, dim);
  BlockCoefficientsAvx2(sigmoid, positives, n_steps, negatives, n_negatives,
                        lr, coefs);
  BlockUpdates(centers, positives, n_steps, negatives, n_negatives, coefs,
               grads, dim);
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
  void (*dot_norm2_batch)(const float* const*, std::size_t, const float*,
                          std::size_t, float*, float*);
  void (*ns_block)(float* const*, float* const*, std::size_t, float* const*,
                   std::size_t, float, const SigmoidTable&, float*, float*,
                   std::size_t);
};

// One table per backend; every kernel namespace defines the same names.
#define ACTOR_KERNEL_TABLE(ns)                                           \
  KernelTable {                                                          \
    &ns::Dot, &ns::Axpy, &ns::Scale, &ns::Add, &ns::Norm2,               \
        &ns::DotAndNorm2Batch, &ns::SharedNegativeBlock                  \
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

void DotAndNorm2Batch(const float* const* queries, std::size_t b,
                      const float* y, std::size_t n, float* dots,
                      float* y_norm2) {
  g_kernels.dot_norm2_batch(queries, b, y, n, dots, y_norm2);
}

void SharedNegativeBlock(float* const* centers, float* const* positives,
                         std::size_t n_steps, float* const* negatives,
                         std::size_t n_negatives, float lr,
                         const SigmoidTable& sigmoid, float* grads,
                         float* coefs, std::size_t dim) {
  ACTOR_DCHECK(n_negatives >= 1);
  ACTOR_DCHECK(CentersDisjointFromContext(centers, positives, n_steps,
                                          negatives, n_negatives))
      << "a center row is also a context row of the block";
  g_kernels.ns_block(centers, positives, n_steps, negatives, n_negatives, lr,
                     sigmoid, grads, coefs, dim);
}

SigmoidTable::SigmoidTable() {
  for (int i = 0; i < kTableSize + 2; ++i) {
    const float x = -kBound + static_cast<float>(i) / kScale;
    table_[i] = Sigmoid(x);
  }
}

}  // namespace actor
