#ifndef ACTOR_SHARD_SHARDED_MATRIX_H_
#define ACTOR_SHARD_SHARDED_MATRIX_H_

#include <cstdint>
#include <vector>

#include "embedding/embedding_matrix.h"
#include "shard/vertex_partitioner.h"
#include "util/logging.h"
#include "util/rng.h"

namespace actor {

/// Embedding matrix partitioned by vertex ownership: one independent
/// EmbeddingMatrix allocation per shard, indexed by the local rows of a
/// ShardMap. Each per-shard matrix keeps the 32-byte row alignment of the
/// flat EmbeddingMatrix, so the SIMD kernels are unchanged; what sharding
/// buys is *write isolation* — a shard trainer only ever touches its own
/// allocation, so per-shard epochs need no row-level synchronization at
/// all (docs/sharding.md).
class ShardedEmbeddingMatrix {
 public:
  ShardedEmbeddingMatrix() = default;
  ShardedEmbeddingMatrix(int num_shards, int32_t dim) : dim_(dim) {
    ACTOR_DCHECK(num_shards >= 1);
    shards_.reserve(static_cast<std::size_t>(num_shards));
    for (int s = 0; s < num_shards; ++s) shards_.emplace_back(0, dim);
  }

  ShardedEmbeddingMatrix(ShardedEmbeddingMatrix&&) = default;
  ShardedEmbeddingMatrix& operator=(ShardedEmbeddingMatrix&&) = default;
  ShardedEmbeddingMatrix(const ShardedEmbeddingMatrix&) = delete;
  ShardedEmbeddingMatrix& operator=(const ShardedEmbeddingMatrix&) = delete;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  int32_t dim() const { return dim_; }

  EmbeddingMatrix& shard(int s) {
    ACTOR_DCHECK(s >= 0 && s < num_shards()) << "shard " << s;
    return shards_[static_cast<std::size_t>(s)];
  }
  const EmbeddingMatrix& shard(int s) const {
    ACTOR_DCHECK(s >= 0 && s < num_shards()) << "shard " << s;
    return shards_[static_cast<std::size_t>(s)];
  }

  int32_t total_rows() const {
    int32_t n = 0;
    for (const EmbeddingMatrix& m : shards_) n += m.rows();
    return n;
  }

  /// Appends one row to shard `s` (word2vec init when `rng` is given, zero
  /// otherwise); returns the new local row index.
  int32_t AppendRow(int s, Rng* rng) {
    EmbeddingMatrix& m = shard(s);
    const int32_t local = m.rows();
    m.AppendRows(1, rng);
    return local;
  }

  /// Gathers the shards into one flat matrix in global-id order — the
  /// reference a published snapshot is checked against in tests and the
  /// shard smoke. O(rows * dim) copy.
  EmbeddingMatrix Gather(const ShardMap& map) const {
    ACTOR_DCHECK(map.num_shards() == num_shards());
    ACTOR_DCHECK(map.num_vertices() == total_rows());
    EmbeddingMatrix out(map.num_vertices(), dim_);
    for (VertexId v = 0; v < map.num_vertices(); ++v) {
      out.SetRow(v, shards_[static_cast<std::size_t>(map.owner(v))].row(
                        map.local_row(v)));
    }
    return out;
  }

  bool DebugValidate() const {
    for (const EmbeddingMatrix& m : shards_) {
      if (!m.DebugValidate()) return false;
    }
    return true;
  }

 private:
  int32_t dim_ = 0;
  std::vector<EmbeddingMatrix> shards_;
};

}  // namespace actor

#endif  // ACTOR_SHARD_SHARDED_MATRIX_H_
