#ifndef ACTOR_CORE_ONLINE_EDGE_STORE_H_
#define ACTOR_CORE_ONLINE_EDGE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "util/logging.h"

namespace actor {

/// Decaying undirected co-occurrence edge store for one edge type of the
/// streaming pipeline (docs/streaming.md).
///
/// The store keeps live edges in *flat, index-stable arrays* (`src`/`dst`/
/// raw weights) plus a packed-pair index, so the per-batch re-embed cycle
/// can rebuild its alias sampler straight from a contiguous weight vector
/// instead of re-flattening a hash map — the incremental rebuild path of
/// the OnlineActor substrate port. The index is a private open-addressing
/// table (linear probing, load <= 1/2, backward-shift deletion), and the
/// per-vertex degrees are dense arrays indexed by vertex id, so neither
/// Accumulate() nor Decay() touches a node-based hash map.
///
/// Two structural properties make the decay cycle cheap:
///
/// * **Lazy uniform decay.** `Decay(f)` multiplies one scalar
///   (`weight_scale()`), not every weight: effective weight = raw x scale.
///   Because the decay is uniform, the *relative* sampling distribution —
///   and therefore any alias table built over the raw weights — is
///   unchanged by decay alone. Only edge drops and `Accumulate()` calls
///   invalidate samplers, which is what `version()` tracks.
/// * **Swap-remove compaction.** Edges whose effective weight falls below
///   `min_weight` are dropped by swapping the last live edge into their
///   slot, so the arrays stay dense with no tombstones and no reallocation
///   churn.
///
/// Per-vertex decayed degrees (the d^(3/4) negative-sampling masses) are
/// maintained incrementally under the same uniform-scale trick, next to a
/// live incident-edge count per vertex: a vertex whose last edge drops gets
/// a degree of exactly 0.
///
/// Thread-compatibility: mutations are single-threaded (the ingest phase);
/// during the re-embed phase the store is read-only.
class OnlineEdgeStore {
 public:
  OnlineEdgeStore() = default;

  /// Sets the drop threshold for decayed edges. Must be > 0 (a zero
  /// threshold would let edges decay toward denormal weights forever).
  void set_min_weight(double min_weight) {
    ACTOR_DCHECK(min_weight > 0.0)
        << "min_weight must be > 0, got " << min_weight;
    min_weight_ = min_weight;
  }
  double min_weight() const { return min_weight_; }

  /// Adds `w` (effective) to the undirected edge {a, b}, creating it when
  /// absent. Self-loops and invalid endpoints are caller bugs.
  void Accumulate(VertexId a, VertexId b, double w = 1.0);

  /// Multiplies every live weight by `factor` in (0, 1] (O(1) via the
  /// shared scale), then drops edges whose effective weight fell below
  /// min_weight(). factor == 1 is a no-op (the "never forget" mode).
  void Decay(double factor);

  /// Number of live undirected edges.
  std::size_t size() const { return src_.size(); }
  bool empty() const { return src_.empty(); }

  /// Endpoint arrays, index-aligned with raw_weights(). For entry i the
  /// canonical orientation is src()[i] < dst()[i]; samplers that need both
  /// directions draw the orientation separately.
  const std::vector<VertexId>& src() const { return src_; }
  const std::vector<VertexId>& dst() const { return dst_; }

  /// Raw (pre-scale) weights. Proportional to the effective weights — an
  /// alias table built over this vector samples the decayed distribution
  /// exactly, with no per-edge multiplication.
  const std::vector<double>& raw_weights() const { return raw_weight_; }

  /// Current uniform scale; effective weight of edge i is
  /// raw_weights()[i] * weight_scale().
  double weight_scale() const { return scale_; }

  /// Effective (decayed) weight of edge i.
  double weight(std::size_t i) const {
    ACTOR_DCHECK(i < raw_weight_.size())
        << "edge " << i << " of " << raw_weight_.size();
    return raw_weight_[i] * scale_;
  }

  /// Effective weight of the undirected edge {a, b}; 0 when not live.
  double EdgeWeight(VertexId a, VertexId b) const;

  /// Sum of all effective weights.
  double total_weight() const { return total_raw_ * scale_; }

  /// Raw decayed degree of vertex v (sum of incident raw weights), for
  /// building the noise distribution ∝ degree^(3/4). Uniformly scaled like
  /// the edge weights, so relative masses survive decay unchanged. Exactly
  /// 0 for a vertex with no live edge (incident_edges(v) == 0), including
  /// ids the store has never seen.
  double raw_degree(VertexId v) const {
    return static_cast<std::size_t>(v) < raw_degree_.size() ? raw_degree_[v]
                                                             : 0.0;
  }

  /// Number of live edges incident to vertex v.
  uint32_t incident_edges(VertexId v) const {
    return static_cast<std::size_t>(v) < incident_.size() ? incident_[v] : 0;
  }

  /// One past the largest vertex id that ever had an edge here: every live
  /// vertex is in [0, vertex_bound()), so walking that range in order
  /// visits the live vertices in ascending id.
  VertexId vertex_bound() const {
    return static_cast<VertexId>(raw_degree_.size());
  }

  /// Monotonic counter bumped whenever the *relative* sampling
  /// distribution changes (Accumulate, or drops during Decay). Uniform
  /// decay alone does not bump it — samplers keyed on version() stay valid
  /// across pure-decay batches.
  uint64_t version() const { return version_; }

  /// Debug-only O(E + V) consistency sweep: cached totals match the
  /// arrays, the pair index is exact, and degrees and incident counts
  /// equal the incident-weight sums and edge counts. With `after_decay`
  /// the decayed-weight floor is also enforced: every live effective
  /// weight must be >= min_weight (Decay() just compacted anything below
  /// it away; an Accumulate() may legitimately insert smaller edges
  /// between decays). Returns true so it can sit inside ACTOR_DCHECK.
  bool DebugCheckConsistent(bool after_decay = false) const;

  /// Where the pair index keeps {a, b}, for tests of its probe paths: the
  /// bucket count (0 before the first edge), the pair's home bucket, and
  /// the bucket it sits in, kNotIndexed when the pair is not live. A
  /// bucket below the home bucket means the probe run wrapped past the end.
  static constexpr std::size_t kNotIndexed = ~std::size_t{0};
  struct IndexProbe {
    std::size_t buckets = 0;
    std::size_t home = 0;
    std::size_t bucket = kNotIndexed;
  };
  IndexProbe DebugIndexProbe(VertexId a, VertexId b) const;

 private:
  static uint64_t PackKey(VertexId a, VertexId b) {
    const uint64_t lo = static_cast<uint32_t>(a < b ? a : b);
    const uint64_t hi = static_cast<uint32_t>(a < b ? b : a);
    return (lo << 32) | hi;
  }

  /// Folds the pending scale into the raw weights when the scale becomes
  /// tiny, preventing raw-weight blow-up on long streams. Distribution-
  /// preserving, so samplers stay valid.
  void RenormalizeIfNeeded();

  /// Bucket of the pair index holding `key`, or kNotIndexed when the
  /// pair is not live: a probe run from the key's home bucket that stops
  /// at the key or at the first empty bucket.
  std::size_t FindBucket(uint64_t key) const;
  /// Slot of the undirected edge with packed key `key` in the edge arrays,
  /// or kNoSlot when it is not live.
  uint32_t FindSlot(uint64_t key) const;
  /// Stores key -> slot in the first free bucket of key's probe run; the
  /// key must be absent and the table below its load limit.
  void InsertKey(uint64_t key, uint32_t slot);
  /// Empties `bucket` and shifts the rest of its probe run back, so every
  /// key stays reachable from its home bucket without tombstones.
  void EraseBucket(std::size_t bucket);
  /// Doubles the bucket count (at least kMinBuckets) and re-inserts every
  /// live edge from the edge arrays.
  void GrowIndex();
  std::size_t HomeBucket(uint64_t key) const {
    // Fibonacci hashing: the top bits of key * 2^64/phi.
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                    index_shift_);
  }

  /// Removes one live edge of raw weight `raw_w` from v; the last one
  /// leaves a degree of exactly 0.
  void RemoveIncident(VertexId v, double raw_w);

  static constexpr uint32_t kNoSlot = ~uint32_t{0};
  /// No canonical pair packs to this: both halves are kInvalidVertex.
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};
  static constexpr std::size_t kMinBuckets = 16;
  struct IndexBucket {
    uint64_t key = kEmptyKey;
    uint32_t slot = kNoSlot;
  };

  double min_weight_ = 0.05;
  double scale_ = 1.0;
  double total_raw_ = 0.0;
  uint64_t version_ = 0;

  std::vector<VertexId> src_;
  std::vector<VertexId> dst_;
  std::vector<double> raw_weight_;
  /// Pair index: packed pair -> edge slot, a power-of-two bucket count
  /// (0 until the first edge), at most half full.
  std::vector<IndexBucket> index_;
  int index_shift_ = 64;  // 64 - log2(index_.size())
  /// Dense per-vertex state, indexed by vertex id.
  std::vector<double> raw_degree_;
  std::vector<uint32_t> incident_;
};

}  // namespace actor

#endif  // ACTOR_CORE_ONLINE_EDGE_STORE_H_
