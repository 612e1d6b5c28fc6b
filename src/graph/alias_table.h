#ifndef ACTOR_GRAPH_ALIAS_TABLE_H_
#define ACTOR_GRAPH_ALIAS_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.h"
#include "util/result.h"
#include "util/rng.h"

namespace actor {

/// Lemire's exact 64-bit fastmod ("Faster Remainder by Direct
/// Computation", 2019): with the 128-bit magic M = floor((2^128 - 1) / n) + 1,
/// ((M * x mod 2^128) * n) >> 128 equals x % n for every 64-bit x and n > 0,
/// with multiplications only. (M wraps to 0 for n == 1, which still yields
/// x % 1 == 0.)
using FastModMagic = unsigned __int128;

inline FastModMagic ComputeFastModMagic(uint64_t n) {
  return ~FastModMagic{0} / n + 1;
}

inline uint64_t FastMod(uint64_t x, FastModMagic magic, uint64_t n) {
  const FastModMagic low = magic * x;
  // The 192-bit product low * n, keeping only bits [128, 192).
  const FastModMagic bottom = ((low & ~uint64_t{0}) * n) >> 64;
  const FastModMagic top = (low >> 64) * n;
  return static_cast<uint64_t>((bottom + top) >> 64);
}

/// Walker's alias method: O(n) construction, O(1) sampling from a discrete
/// distribution (paper §5.2.3, [44]). Used for weighted edge sampling and
/// for the negative-sampling noise distribution.
///
/// Two construction paths exist: `Create()` builds a fresh table, and
/// `Rebuild()` re-derives the table in place, reusing the existing bucket
/// storage. The streaming pipeline (docs/streaming.md) rebuilds its
/// samplers after every ingested batch, so the in-place path keeps the
/// decay → re-embed cycle allocation-free once the tables reach their
/// steady-state size.
class AliasTable {
 public:
  /// An empty table; Sample() may not be called until a Rebuild() (or
  /// assignment from Create()) succeeds. size() is 0.
  AliasTable() = default;

  /// Builds the table from non-negative weights. Returns InvalidArgument if
  /// `weights` is empty, contains a negative value, or sums to zero.
  static Result<AliasTable> Create(const std::vector<double>& weights);

  /// Rebuilds this table from `weights` without releasing bucket storage
  /// or construction scratch: repeated rebuilds at steady-state size
  /// perform no allocations. Same validation as Create(); on error the
  /// table is left unchanged and remains safe to Sample() from (if it was
  /// before).
  Status Rebuild(const std::vector<double>& weights);

  /// Draws an index in [0, size()) with probability proportional to its
  /// weight. Thread-safe given distinct Rng instances. Consumes the RNG
  /// exactly as `rng.Uniform(size())` followed by `rng.UniformDouble()`
  /// would, and picks the same bucket, without a 64-bit division.
  std::size_t Sample(Rng& rng) const {
    ACTOR_DCHECK(!prob_.empty()) << "sampling from an empty alias table";
    const std::size_t i = FastMod(rng.Next(), magic_, prob_.size());
    // Branchless accept/alias select: all-ones keeps the bucket itself.
    const bool accept = rng.UniformDouble() < prob_[i];
    const std::size_t keep = std::size_t{0} - static_cast<std::size_t>(accept);
    const std::size_t drawn = (i & keep) | (alias_[i] & ~keep);
    // A torn table (alias entry past the end) would silently corrupt the
    // trainers that index rows with the draw; catch it at the source.
    ACTOR_DCHECK(drawn < prob_.size())
        << "alias table draw out of range (bucket " << i << ")";
    return drawn;
  }

  std::size_t size() const { return prob_.size(); }

  /// Exact sampling probability of index i, reconstructed from the
  /// buckets in O(size()) (for tests).
  double Probability(std::size_t i) const;

  /// Acceptance probability and alias of bucket i (for tests).
  double Accept(std::size_t i) const { return prob_[i]; }
  uint32_t Alias(std::size_t i) const { return alias_[i]; }

 private:
  /// Shared Walker construction: validates `weights`, then fills the
  /// bucket arrays and the fastmod magic (resized, storage reused where
  /// capacity allows). `work` is the small/large worklist scratch.
  Status BuildInto(const std::vector<double>& weights,
                   std::vector<uint32_t>* work);

  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
  FastModMagic magic_ = 0;  // ComputeFastModMagic(size())
  /// Rebuild()'s worklist scratch, kept so steady-state rebuilds do not
  /// allocate. Create() uses a temporary instead, so one-shot tables carry
  /// none.
  std::vector<uint32_t> work_;
};

}  // namespace actor

#endif  // ACTOR_GRAPH_ALIAS_TABLE_H_
