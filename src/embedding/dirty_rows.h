#ifndef ACTOR_EMBEDDING_DIRTY_ROWS_H_
#define ACTOR_EMBEDDING_DIRTY_ROWS_H_

#include <cstdint>
#include <vector>

#include "util/logging.h"

namespace actor {

/// Bitset over embedding-matrix rows recording which rows a trainer has
/// touched since the last publish. The delta-publish path (docs/serving.md)
/// copies only chunks containing dirty rows into the next ModelSnapshot and
/// shares the rest with the previous one, so Publish cost tracks the ingest
/// batch instead of the model.
///
/// Not thread-safe: OnlineActor marks its one set on the ingest thread,
/// the thread that also publishes and clears it. actor-lint R4 flags a
/// shared set marked from inside a hogwild region.
class DirtyRowSet {
 public:
  DirtyRowSet() = default;

  /// Grows (or shrinks) the tracked row range. Existing bits are kept;
  /// newly covered rows start clean. Callers appending rows to a matrix
  /// mark the appended rows themselves (a new row is by definition dirty
  /// relative to any earlier snapshot).
  void Resize(int32_t rows) {
    rows_ = rows;
    bits_.resize((static_cast<std::size_t>(rows) + 63) / 64, 0);
  }

  int32_t rows() const { return rows_; }

  void Mark(int32_t row) {
    ACTOR_DCHECK(row >= 0 && row < rows_) << "row " << row << " of " << rows_;
    bits_[static_cast<std::size_t>(row) >> 6] |=
        uint64_t{1} << (static_cast<std::size_t>(row) & 63);
  }

  void MarkAll() {
    for (auto& w : bits_) w = ~uint64_t{0};
  }

  /// All bits to clean; keeps the size (called after a successful publish —
  /// the new snapshot is exact, so nothing is dirty relative to it).
  void Clear() {
    for (auto& w : bits_) w = 0;
  }

  /// True when any row in [begin, end) is dirty. The chunk-COW copy asks
  /// this once per chunk, so it works word-wise, not bit-wise.
  bool AnyInRange(int32_t begin, int32_t end) const {
    if (begin >= end) return false;
    ACTOR_DCHECK(begin >= 0 && end <= rows_);
    const std::size_t first = static_cast<std::size_t>(begin) >> 6;
    const std::size_t last = (static_cast<std::size_t>(end) - 1) >> 6;
    for (std::size_t w = first; w <= last; ++w) {
      uint64_t word = bits_[w];
      if (w == first) word &= ~uint64_t{0} << (static_cast<std::size_t>(begin) & 63);
      if (w == last) {
        const std::size_t top = (static_cast<std::size_t>(end) - 1) & 63;
        word &= ~uint64_t{0} >> (63 - top);
      }
      if (word != 0) return true;
    }
    return false;
  }

 private:
  int32_t rows_ = 0;
  std::vector<uint64_t> bits_;
};

}  // namespace actor

#endif  // ACTOR_EMBEDDING_DIRTY_ROWS_H_
