#include "graph/alias_table.h"

#include <limits>

namespace actor {

Status AliasTable::BuildInto(const std::vector<double>& weights,
                             std::vector<uint32_t>* work) {
  if (weights.empty()) {
    return Status::InvalidArgument("alias table needs at least one weight");
  }
  if (weights.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("alias table too large");
  }
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) {
      return Status::InvalidArgument("alias table weights must be >= 0");
    }
    total += w;
  }
  if (total <= 0.0) {
    return Status::InvalidArgument("alias table weights sum to zero");
  }

  const std::size_t n = weights.size();
  // Scaled probabilities; "small" entries donate leftover mass from "large"
  // ones. `prob_` doubles as the scaled-weight scratch until the donation
  // loop rewrites it with acceptance probabilities.
  std::vector<double>& scaled = prob_;
  scaled.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] / total * static_cast<double>(n);
  }
  // Both worklists are stacks in one array: "small" grows up from the
  // front (stack[0, ns)), "large" down from the back (stack[nl, n)). Each
  // index sits in at most one of them, so they never collide.
  std::vector<uint32_t>& stack = *work;
  stack.resize(n);
  std::size_t ns = 0;
  std::size_t nl = n;
  auto push = [&](uint32_t i) {
    if (scaled[i] < 1.0) {
      stack[ns++] = i;
    } else {
      stack[--nl] = i;
    }
  };
  for (std::size_t i = 0; i < n; ++i) push(static_cast<uint32_t>(i));

  alias_.resize(n);
  for (std::size_t i = 0; i < n; ++i) alias_[i] = static_cast<uint32_t>(i);

  while (ns > 0 && nl < n) {
    const uint32_t s = stack[--ns];
    const uint32_t l = stack[nl++];
    // scaled[s] < 1 is final: it becomes s's acceptance probability.
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    push(l);
  }
  // Remaining entries have probability 1 (floating-point leftovers).
  for (std::size_t k = 0; k < ns; ++k) scaled[stack[k]] = 1.0;
  for (std::size_t k = nl; k < n; ++k) scaled[stack[k]] = 1.0;
  magic_ = ComputeFastModMagic(n);

  // Invariants of a well-formed Walker table: every bucket keeps a valid
  // acceptance probability and alias index, and the reconstructed sampling
  // mass sum_i (prob[i] + donated mass) / n is exactly the normalized
  // weights, which must sum to ~1.
  if constexpr (kDebugChecksEnabled) {
    double mass = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      ACTOR_DCHECK(prob_[i] >= 0.0 && prob_[i] <= 1.0 + 1e-9)
          << "bucket " << i << " acceptance probability " << prob_[i];
      ACTOR_DCHECK(alias_[i] < n)
          << "bucket " << i << " alias " << alias_[i] << " out of range";
      const double norm = weights[i] / total;
      ACTOR_DCHECK_FINITE(norm);
      mass += norm;
    }
    ACTOR_DCHECK(std::fabs(mass - 1.0) < 1e-6)
        << "normalized weights sum to " << mass;
  }

  return Status::OK();
}

Result<AliasTable> AliasTable::Create(const std::vector<double>& weights) {
  AliasTable table;
  std::vector<uint32_t> work;
  ACTOR_RETURN_NOT_OK(table.BuildInto(weights, &work));
  return table;
}

Status AliasTable::Rebuild(const std::vector<double>& weights) {
  return BuildInto(weights, &work_);
}

double AliasTable::Probability(std::size_t i) const {
  ACTOR_DCHECK(i < prob_.size())
      << "Probability() index " << i << " out of range";
  // Bucket i keeps prob_[i] of its 1/n share, and every bucket aliased to
  // i hands it the rest of that bucket's share.
  double p = prob_[i];
  for (std::size_t j = 0; j < prob_.size(); ++j) {
    if (alias_[j] == i) p += 1.0 - prob_[j];
  }
  return p / static_cast<double>(prob_.size());
}

}  // namespace actor
