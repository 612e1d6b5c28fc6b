#ifndef ACTOR_UTIL_VEC_MATH_H_
#define ACTOR_UTIL_VEC_MATH_H_

#include <atomic>
#include <cmath>
#include <cstddef>

namespace actor {

/// Dense float vector kernels used by the embedding trainers. All functions
/// operate on raw pointers so they can address rows of an EmbeddingMatrix
/// without copies.
///
/// Two implementations exist for every hot kernel: a portable scalar loop
/// (namespace `scalar`, also the reference for parity tests) and an
/// AVX2+FMA version selected at runtime. The top-level functions dispatch
/// through function pointers initialized before main() from CPUID, so a
/// single binary runs the fastest kernels the machine supports and falls
/// back to the scalar loops everywhere else.

/// Which kernel family the top-level functions currently dispatch to.
/// kRelaxed is the TSan-annotated scalar family (see relaxed:: below); in a
/// ACTOR_TSAN build it replaces both other backends so every shared-row
/// access is visible to ThreadSanitizer as an intentional relaxed atomic.
enum class VecBackend { kScalar, kRelaxed, kAvx2 };

/// True when the running CPU supports the AVX2+FMA kernels.
bool Avx2Available();

/// Backend the dispatched kernels currently use. Defaults to the fastest
/// available backend.
VecBackend ActiveVecBackend();

/// Forces the dispatched kernels onto `backend` (used by benchmarks and
/// parity tests). Requests for an unavailable backend fall back to scalar.
/// Returns the backend actually installed. Not safe to call while trainer
/// threads are running.
VecBackend SetVecBackend(VecBackend backend);

/// Stable lowercase name for a backend ("scalar", "relaxed", "avx2") —
/// the spelling used in BENCH_sgd.json rows and bench output.
const char* VecBackendName(VecBackend backend);

/// Returns the dot product of x and y (length n).
float Dot(const float* x, const float* y, std::size_t n);

/// y += a * x (length n).
void Axpy(float a, const float* x, float* y, std::size_t n);

/// x *= a (length n).
void Scale(float a, float* x, std::size_t n);

/// out = x (length n).
void Copy(const float* x, float* out, std::size_t n);

/// out += x (length n).
void Add(const float* x, float* out, std::size_t n);

/// Sets x to all zeros (length n).
void Zero(float* x, std::size_t n);

/// Returns the L2 norm of x (length n).
float Norm2(const float* x, std::size_t n);

/// Normalizes x to unit L2 norm in place. A zero vector is left unchanged.
void NormalizeInPlace(float* x, std::size_t n);

/// Cosine similarity; 0 when either vector is all-zero.
float Cosine(const float* x, const float* y, std::size_t n);

/// Blocked many-queries-vs-one-row scoring pass: scores one candidate row y
/// against a block of b query vectors,
///   dots[j]  = Dot(queries[j], y, n)   for j < b
///   *y_norm2 = Dot(y, y, n)
/// loading y once per register block instead of once per query — the kernel
/// behind QueryEngine::QueryBatch, where the candidate row streams from
/// memory while the query block stays cache-resident. Every per-query
/// accumulator chain runs the exact reduction order of the stand-alone
/// Dot() in the same backend, and so does the y_norm2 chain, so each
/// dots[j] / (Norm2(queries[j]) * sqrt(y_norm2)) is bit-identical to
/// Cosine(queries[j], y, n) — at any b, including b == 1. b == 0 is allowed
/// and still fills y_norm2.
void DotAndNorm2Batch(const float* const* queries, std::size_t b,
                      const float* y, std::size_t n, float* dots,
                      float* y_norm2);

class SigmoidTable;

/// Shared-negative block step (Eq. (7), updates of Eqs. (8)-(10)):
/// `n_steps` steps, step b training center row C_b = centers[b] against its
/// positive context row P_b = positives[b] and the `n_negatives` (>= 1)
/// shared negative rows N_k = negatives[k]. Every dot product and every
/// center gradient reads the rows as they were when the call started:
///   g_b0   = (1 - sigmoid(C_b . P_b)) * lr
///   g_bk   = -sigmoid(C_b . N_k) * lr, or 0 when N_k is the row P_b
///   grad_b = g_b0 * P_b + sum_k g_bk * N_k      (summed in k order)
/// Then every row write adds to the row's current value, in this order:
///   N_k += sum_b g_bk * C_b    (k in draw order, b in step order)
///   P_b += g_b0 * C_b          (b in order)
///   C_b += grad_b              (b in order)
/// so a repeated negative, a positive that is also a negative, and a center
/// or positive appearing twice all receive every update, deterministically.
/// Each backend is bit-identical to that order composed from its own Dot,
/// SigmoidTable, Zero, Axpy and Add. On return `grads` (n_steps * dim
/// floats) holds grad_b at grads + b * dim, the update already applied to
/// C_b, which is how a caller whose center is a scratch composite passes
/// the gradient on to the composite's members. `coefs` (n_steps *
/// (1 + n_negatives) floats) is caller-owned scratch. With n_steps == 1 the
/// call is one plain negative-sampling step; on pairwise-distinct rows it
/// is bit-identical to the per-row Dot + SigmoidTable + Axpy composition
/// followed by Add(grad, center). Centers must not be context rows
/// (positives or negatives); rows must each either coincide or not overlap
/// at all.
void SharedNegativeBlock(float* const* centers, float* const* positives,
                         std::size_t n_steps, float* const* negatives,
                         std::size_t n_negatives, float lr,
                         const SigmoidTable& sigmoid, float* grads,
                         float* coefs, std::size_t dim);

/// Portable reference kernels; always available regardless of the active
/// backend. The dispatched functions above are bit-compatible with these
/// up to floating-point reassociation (Dot/Norm2) and FMA rounding
/// (Axpy/SharedNegativeBlock), covered by the parity tests.
namespace scalar {
float Dot(const float* x, const float* y, std::size_t n);
void Axpy(float a, const float* x, float* y, std::size_t n);
void Scale(float a, float* x, std::size_t n);
void Add(const float* x, float* out, std::size_t n);
float Norm2(const float* x, std::size_t n);
void DotAndNorm2Batch(const float* const* queries, std::size_t b,
                      const float* y, std::size_t n, float* dots,
                      float* y_norm2);
void SharedNegativeBlock(float* const* centers, float* const* positives,
                         std::size_t n_steps, float* const* negatives,
                         std::size_t n_negatives, float lr,
                         const SigmoidTable& sigmoid, float* grads,
                         float* coefs, std::size_t dim);
}  // namespace scalar

/// HOGWILD row accessors. The asynchronous SGD trainers update shared
/// EmbeddingMatrix rows without locks (paper §5.2, HOGWILD [45]); those
/// races are intentional, but ThreadSanitizer cannot tell them from bugs.
/// Under ACTOR_TSAN every shared-row load/store is routed through these
/// relaxed std::atomic_ref accessors, so TSan sees deliberate atomics and
/// a clean run means "no *unintentional* races". In every other build they
/// compile to plain loads/stores (on x86 a relaxed float load/store is a
/// plain mov anyway), so the release hot path is unchanged.
#if defined(ACTOR_TSAN)
inline float RelaxedLoad(const float* p) {
  return std::atomic_ref<float>(*const_cast<float*>(p))
      .load(std::memory_order_relaxed);
}
inline void RelaxedStore(float* p, float v) {
  std::atomic_ref<float>(*p).store(v, std::memory_order_relaxed);
}
#else
inline float RelaxedLoad(const float* p) { return *p; }
inline void RelaxedStore(float* p, float v) { *p = v; }
#endif

/// Scalar kernels expressed entirely through RelaxedLoad/RelaxedStore.
/// Same iteration order as scalar::, hence bit-identical results (covered
/// by the parity tests). Installed as the active backend in ACTOR_TSAN
/// builds; compiled in all builds so parity stays testable everywhere.
namespace relaxed {
float Dot(const float* x, const float* y, std::size_t n);
void Axpy(float a, const float* x, float* y, std::size_t n);
void Scale(float a, float* x, std::size_t n);
void Add(const float* x, float* out, std::size_t n);
float Norm2(const float* x, std::size_t n);
void DotAndNorm2Batch(const float* const* queries, std::size_t b,
                      const float* y, std::size_t n, float* dots,
                      float* y_norm2);
void SharedNegativeBlock(float* const* centers, float* const* positives,
                         std::size_t n_steps, float* const* negatives,
                         std::size_t n_negatives, float lr,
                         const SigmoidTable& sigmoid, float* grads,
                         float* coefs, std::size_t dim);
}  // namespace relaxed

/// Prefetches the first n floats at p into cache (write intent). Used by
/// the block-wise edge samplers to hide the latency of the random row
/// accesses behind the alias-table draws.
inline void PrefetchRow(const float* p, std::size_t n) {
#if defined(__GNUC__) || defined(__clang__)
  for (std::size_t off = 0; off < n; off += 16) {
    __builtin_prefetch(p + off, 1, 1);
  }
#else
  (void)p;
  (void)n;
#endif
}

/// Numerically-stable logistic sigmoid.
inline float Sigmoid(float x) {
  if (x >= 0.0f) {
    const float z = std::exp(-x);
    return 1.0f / (1.0f + z);
  }
  const float z = std::exp(x);
  return z / (1.0f + z);
}

/// Piecewise-linear table-driven sigmoid, clamped to [-kSigmoidBound,
/// kSigmoidBound] as in word2vec/LINE reference implementations. Roughly 4x
/// faster than Sigmoid() inside the SGD inner loop.
class SigmoidTable {
 public:
  SigmoidTable();
  float operator()(float x) const {
    if (x >= kBound) return 1.0f;
    if (x <= -kBound) return 0.0f;
    const float pos = (x + kBound) * kScale;
    const int idx = static_cast<int>(pos);
    const float frac = pos - static_cast<float>(idx);
    return table_[idx] * (1.0f - frac) + table_[idx + 1] * frac;
  }

  static constexpr float kBound = 8.0f;

 private:
  // The AVX2 SharedNegativeBlock body's coefficient pass (vec_math.cc):
  // this lookup eight lanes at a time, reading table_ and kScale in place.
  friend void BlockCoefficientsAvx2(const SigmoidTable& sigmoid,
                                    float* const* positives,
                                    std::size_t n_steps,
                                    float* const* negatives,
                                    std::size_t n_negatives, float lr,
                                    float* coefs);

  static constexpr int kTableSize = 1024;
  static constexpr float kScale = kTableSize / (2.0f * kBound);
  float table_[kTableSize + 2];
};

}  // namespace actor

#endif  // ACTOR_UTIL_VEC_MATH_H_
