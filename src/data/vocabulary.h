#ifndef ACTOR_DATA_VOCABULARY_H_
#define ACTOR_DATA_VOCABULARY_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/result.h"
#include "util/status.h"
#include "util/string_util.h"

namespace actor {

/// Bidirectional word <-> id mapping with corpus frequencies. Ids are dense
/// in [0, size()).
class Vocabulary {
 public:
  Vocabulary() = default;

  /// Adds `n` occurrences of `word`, interning it if new. Returns its id.
  int32_t AddOccurrence(std::string_view word, int64_t n = 1);

  /// Id of `word`, or -1 if unknown.
  int32_t Lookup(std::string_view word) const;

  /// Word for `id`; CHECK-fails on out-of-range ids.
  const std::string& word(int32_t id) const;

  /// Total occurrences recorded for `id`.
  int64_t count(int32_t id) const;

  int32_t size() const { return static_cast<int32_t>(words_.size()); }

  /// Returns a vocabulary restricted to words with count >= min_count,
  /// keeping at most max_size words (highest-count first; ties broken by
  /// first-seen order). Ids are re-assigned densely in the returned
  /// vocabulary.
  Vocabulary Prune(int64_t min_count, int32_t max_size) const;

  /// The ids Prune keeps from a vocabulary with these per-id counts, in
  /// their new id order: one stable count-descending sort, cut at the
  /// first count below min_count or after max_size ids.
  static std::vector<int32_t> PruneOrder(std::span<const int64_t> counts,
                                         int64_t min_count,
                                         int32_t max_size);

  /// All words, indexed by id.
  const std::vector<std::string>& words() const { return words_; }

  /// All counts, indexed by id.
  const std::vector<int64_t>& counts() const { return counts_; }

 private:
  std::vector<std::string> words_;
  std::vector<int64_t> counts_;
  std::unordered_map<std::string, int32_t, StringHash, std::equal_to<>>
      index_;
};

}  // namespace actor

#endif  // ACTOR_DATA_VOCABULARY_H_
