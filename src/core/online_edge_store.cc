#include "core/online_edge_store.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace actor {
namespace {

/// Below this scale the raw weights are within ~9 decades of the double
/// overflow cliff on long streams; fold the scale in well before that.
constexpr double kRenormScale = 1e-9;

}  // namespace

void OnlineEdgeStore::Accumulate(VertexId a, VertexId b, double w) {
  ACTOR_DCHECK(a != b) << "self-loop on vertex " << a;
  ACTOR_DCHECK(a != kInvalidVertex && b != kInvalidVertex)
      << "invalid endpoint (" << a << ", " << b << ")";
  ACTOR_DCHECK(w > 0.0) << "non-positive edge weight " << w;
  const double raw = w / scale_;
  const uint64_t key = PackKey(a, b);
  uint32_t slot = FindSlot(key);
  if (slot == kNoSlot) {
    if (2 * (src_.size() + 1) > index_.size()) GrowIndex();
    slot = static_cast<uint32_t>(src_.size());
    InsertKey(key, slot);
    const VertexId hi = a < b ? b : a;
    src_.push_back(a < b ? a : b);
    dst_.push_back(hi);
    raw_weight_.push_back(0.0);
    if (static_cast<std::size_t>(hi) >= raw_degree_.size()) {
      raw_degree_.resize(static_cast<std::size_t>(hi) + 1, 0.0);
      incident_.resize(static_cast<std::size_t>(hi) + 1, 0);
    }
    ++incident_[a];
    ++incident_[b];
  }
  raw_weight_[slot] += raw;
  raw_degree_[a] += raw;
  raw_degree_[b] += raw;
  total_raw_ += raw;
  ++version_;
}

void OnlineEdgeStore::Decay(double factor) {
  ACTOR_DCHECK(factor > 0.0 && factor <= 1.0)
      << "decay factor must be in (0, 1], got " << factor;
  if (factor >= 1.0) return;  // never-forget mode: nothing decays or drops
  scale_ *= factor;

  // Drop edges whose effective weight fell below the threshold. The raw
  // threshold is hoisted so the sweep is one compare per edge. A vertex
  // whose last incident edge drops gets a degree of exactly 0, so no
  // subtraction residue survives it.
  const double raw_min = min_weight_ / scale_;
  bool dropped = false;
  for (std::size_t i = 0; i < raw_weight_.size();) {
    if (raw_weight_[i] >= raw_min) {
      ++i;
      continue;
    }
    dropped = true;
    const double raw = raw_weight_[i];
    total_raw_ -= raw;
    RemoveIncident(src_[i], raw);
    RemoveIncident(dst_[i], raw);
    EraseBucket(FindBucket(PackKey(src_[i], dst_[i])));
    const std::size_t last = raw_weight_.size() - 1;
    if (i != last) {
      src_[i] = src_[last];
      dst_[i] = dst_[last];
      raw_weight_[i] = raw_weight_[last];
      const std::size_t moved = FindBucket(PackKey(src_[i], dst_[i]));
      ACTOR_DCHECK(moved != kNotIndexed) << "pair index lost edge " << last;
      index_[moved].slot = static_cast<uint32_t>(i);
    }
    src_.pop_back();
    dst_.pop_back();
    raw_weight_.pop_back();
  }
  if (dropped) ++version_;
  if (empty()) total_raw_ = 0.0;  // clear float residue on full drain
  RenormalizeIfNeeded();
  ACTOR_DCHECK(DebugCheckConsistent(/*after_decay=*/true));
}

double OnlineEdgeStore::EdgeWeight(VertexId a, VertexId b) const {
  const uint32_t slot = FindSlot(PackKey(a, b));
  return slot == kNoSlot ? 0.0 : raw_weight_[slot] * scale_;
}

void OnlineEdgeStore::RenormalizeIfNeeded() {
  if (scale_ >= kRenormScale) return;
  for (double& w : raw_weight_) w *= scale_;
  for (double& d : raw_degree_) d *= scale_;
  total_raw_ *= scale_;
  scale_ = 1.0;
}

std::size_t OnlineEdgeStore::FindBucket(uint64_t key) const {
  if (index_.empty()) return kNotIndexed;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t b = HomeBucket(key);; b = (b + 1) & mask) {
    if (index_[b].key == key) return b;
    if (index_[b].key == kEmptyKey) return kNotIndexed;
  }
}

uint32_t OnlineEdgeStore::FindSlot(uint64_t key) const {
  const std::size_t bucket = FindBucket(key);
  return bucket == kNotIndexed ? kNoSlot : index_[bucket].slot;
}

void OnlineEdgeStore::InsertKey(uint64_t key, uint32_t slot) {
  const std::size_t mask = index_.size() - 1;
  std::size_t b = HomeBucket(key);
  while (index_[b].key != kEmptyKey) b = (b + 1) & mask;
  index_[b] = IndexBucket{key, slot};
}

void OnlineEdgeStore::EraseBucket(std::size_t bucket) {
  ACTOR_DCHECK(bucket < index_.size()) << "pair index lost a live key";
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = bucket;
  for (std::size_t b = (hole + 1) & mask; index_[b].key != kEmptyKey;
       b = (b + 1) & mask) {
    // The key in b may fill the hole when the hole lies on its probe path,
    // i.e. it is at least as far from the key's home as b is.
    const std::size_t home = HomeBucket(index_[b].key);
    if (((b - home) & mask) >= ((b - hole) & mask)) {
      index_[hole] = index_[b];
      hole = b;
    }
  }
  index_[hole] = IndexBucket{};
}

void OnlineEdgeStore::GrowIndex() {
  const std::size_t buckets = std::max(kMinBuckets, 2 * index_.size());
  index_.assign(buckets, IndexBucket{});
  index_shift_ = 64 - std::countr_zero(buckets);
  for (std::size_t i = 0; i < src_.size(); ++i) {
    InsertKey(PackKey(src_[i], dst_[i]), static_cast<uint32_t>(i));
  }
}

void OnlineEdgeStore::RemoveIncident(VertexId v, double raw_w) {
  ACTOR_DCHECK(incident_[v] > 0) << "vertex " << v << " has no live edge";
  if (--incident_[v] == 0) {
    raw_degree_[v] = 0.0;
  } else {
    raw_degree_[v] -= raw_w;
  }
}

bool OnlineEdgeStore::DebugCheckConsistent(bool after_decay) const {
  if constexpr (!kDebugChecksEnabled) return true;
  (void)after_decay;
  ACTOR_DCHECK(src_.size() == dst_.size() &&
               src_.size() == raw_weight_.size())
      << "array size drift: " << src_.size() << "/" << dst_.size() << "/"
      << raw_weight_.size();
  ACTOR_DCHECK(raw_degree_.size() == incident_.size())
      << "degree/count size drift: " << raw_degree_.size() << "/"
      << incident_.size();
  ACTOR_DCHECK(index_.empty() ||
               (std::has_single_bit(index_.size()) &&
                index_shift_ == 64 - std::countr_zero(index_.size())))
      << "pair index has " << index_.size() << " buckets, shift "
      << index_shift_;
  ACTOR_DCHECK(2 * src_.size() <= index_.size() || src_.empty())
      << "pair index over half full: " << src_.size() << " keys in "
      << index_.size() << " buckets";
  std::size_t keys = 0;
  for (const IndexBucket& bucket : index_) {
    if (bucket.key == kEmptyKey) continue;
    ++keys;
    ACTOR_DCHECK(bucket.slot < src_.size() &&
                 PackKey(src_[bucket.slot], dst_[bucket.slot]) == bucket.key)
        << "pair index maps key " << bucket.key << " to a wrong slot "
        << bucket.slot;
  }
  ACTOR_DCHECK(keys == src_.size())
      << "pair index holds " << keys << " keys for " << src_.size()
      << " edges";
  double sum = 0.0;
  std::vector<double> degrees(raw_degree_.size(), 0.0);
  std::vector<uint32_t> counts(incident_.size(), 0);
  for (std::size_t i = 0; i < raw_weight_.size(); ++i) {
    ACTOR_DCHECK(src_[i] < dst_[i])
        << "edge " << i << " not canonically oriented";
    ACTOR_DCHECK(static_cast<std::size_t>(dst_[i]) < degrees.size())
        << "edge " << i << " endpoint " << dst_[i] << " has no degree entry";
    ACTOR_DCHECK(FindSlot(PackKey(src_[i], dst_[i])) == i)
        << "pair index does not map edge " << i << " to its slot";
    ACTOR_DCHECK_FINITE(raw_weight_[i]);
    ACTOR_DCHECK(!after_decay ||
                 raw_weight_[i] * scale_ >= min_weight_ * (1.0 - 1e-9))
        << "edge " << i << " effective weight " << raw_weight_[i] * scale_
        << " below min_weight " << min_weight_;
    sum += raw_weight_[i];
    degrees[src_[i]] += raw_weight_[i];
    degrees[dst_[i]] += raw_weight_[i];
    ++counts[src_[i]];
    ++counts[dst_[i]];
  }
  ACTOR_DCHECK(std::fabs(sum - total_raw_) <=
               1e-9 * std::max(1.0, std::fabs(sum)))
      << "cached raw total " << total_raw_ << " vs recomputed " << sum;
  for (std::size_t v = 0; v < degrees.size(); ++v) {
    ACTOR_DCHECK(incident_[v] == counts[v])
        << "vertex " << v << " counts " << incident_[v]
        << " live edges, recomputed " << counts[v];
    if (counts[v] == 0) {
      ACTOR_DCHECK(raw_degree_[v] == 0.0)
          << "vertex " << v << " has no live edge but degree "
          << raw_degree_[v];
      continue;
    }
    ACTOR_DCHECK(std::fabs(raw_degree_[v] - degrees[v]) <=
                 1e-9 * std::max(1.0, degrees[v]))
        << "vertex " << v << " degree " << raw_degree_[v]
        << " vs recomputed " << degrees[v];
  }
  return true;
}

OnlineEdgeStore::IndexProbe OnlineEdgeStore::DebugIndexProbe(
    VertexId a, VertexId b) const {
  IndexProbe probe;
  if (index_.empty()) return probe;
  const uint64_t key = PackKey(a, b);
  probe.buckets = index_.size();
  probe.home = HomeBucket(key);
  probe.bucket = FindBucket(key);
  return probe;
}

}  // namespace actor
