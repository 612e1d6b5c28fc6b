#include "data/vocabulary.h"

#include <algorithm>
#include <numeric>

#include "util/logging.h"

namespace actor {

int32_t Vocabulary::AddOccurrence(std::string_view word, int64_t n) {
  auto it = index_.find(word);
  if (it != index_.end()) {
    counts_[it->second] += n;
    return it->second;
  }
  const int32_t id = static_cast<int32_t>(words_.size());
  words_.emplace_back(word);
  counts_.push_back(n);
  index_.emplace(words_.back(), id);
  return id;
}

int32_t Vocabulary::Lookup(std::string_view word) const {
  auto it = index_.find(word);
  return it == index_.end() ? -1 : it->second;
}

const std::string& Vocabulary::word(int32_t id) const {
  ACTOR_CHECK(id >= 0 && id < size()) << "vocabulary id " << id;
  return words_[id];
}

int64_t Vocabulary::count(int32_t id) const {
  ACTOR_CHECK(id >= 0 && id < size()) << "vocabulary id " << id;
  return counts_[id];
}

Vocabulary Vocabulary::Prune(int64_t min_count, int32_t max_size) const {
  Vocabulary pruned;
  for (int32_t id : PruneOrder(counts_, min_count, max_size)) {
    pruned.AddOccurrence(words_[id], counts_[id]);
  }
  return pruned;
}

std::vector<int32_t> Vocabulary::PruneOrder(std::span<const int64_t> counts,
                                            int64_t min_count,
                                            int32_t max_size) {
  std::vector<int32_t> ids(counts.size());
  std::iota(ids.begin(), ids.end(), 0);
  std::stable_sort(ids.begin(), ids.end(), [counts](int32_t a, int32_t b) {
    return counts[a] > counts[b];
  });
  const std::size_t cap = static_cast<std::size_t>(std::max(max_size, 0));
  std::size_t keep = 0;
  // Sorted: everything after the first rare id is rarer still.
  while (keep < ids.size() && keep < cap && counts[ids[keep]] >= min_count) {
    ++keep;
  }
  ids.resize(keep);
  return ids;
}

}  // namespace actor
