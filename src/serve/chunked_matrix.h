#ifndef ACTOR_SERVE_CHUNKED_MATRIX_H_
#define ACTOR_SERVE_CHUNKED_MATRIX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "embedding/dirty_rows.h"
#include "embedding/embedding_matrix.h"
#include "util/logging.h"

namespace actor {

/// Immutable chunked copy-on-write view of an EmbeddingMatrix, the storage
/// behind ModelSnapshot (docs/serving.md "Publish cost model").
///
/// Rows are grouped into fixed-size chunks of kChunkRows, each held by a
/// shared_ptr to an immutable float buffer with the same row stride and
/// 32-byte alignment contract as EmbeddingMatrix (padding floats zero, so
/// the SIMD kernels see the exact layout the flat matrix would give them).
///
/// FullCopy() materializes every chunk (a batch snapshot, and a streaming
/// model's first publish). DeltaCopy() copies only chunks containing a
/// dirty row and shares the rest with the previous snapshot's
/// ChunkedMatrix, so publish cost is proportional to the rows the last
/// batch touched, not the model. Shared chunks are safe
/// because snapshots never mutate them: a later publish replaces chunk
/// *pointers*, never chunk contents, so old versions stay immutable and
/// queries stay lock-free.
class ChunkedMatrix {
 public:
  /// Rows per chunk. Power of two so row -> (chunk, offset) is shift/mask;
  /// 64 rows x dim 32 ≈ 8 KiB per chunk at the repo defaults — small
  /// enough that a sparse dirty set skips most of the model, large enough
  /// that the chunk pointer array stays negligible next to the floats.
  static constexpr int32_t kChunkRows = 64;

  ChunkedMatrix() = default;

  /// Copies every row of `src`.
  static ChunkedMatrix FullCopy(const EmbeddingMatrix& src);
  /// Copies `src`, sharing with `prev` every chunk that `prev` fully
  /// covers and that has no row marked in `dirty`. `dirty` must cover
  /// every row that changed since `prev` was built from the same matrix;
  /// it may cover more (extra copies, never wrong contents). Falls back to
  /// a full copy when `prev` has a different dim/stride or more rows.
  static ChunkedMatrix DeltaCopy(const EmbeddingMatrix& src,
                                 const ChunkedMatrix& prev,
                                 const DirtyRowSet& dirty);

  int32_t rows() const { return rows_; }
  int32_t dim() const { return dim_; }
  /// Floats between consecutive row starts within a chunk (same rounding
  /// as EmbeddingMatrix::stride()).
  std::size_t stride() const { return stride_; }
  bool empty() const { return rows_ == 0 || dim_ == 0; }

  const float* row(int32_t i) const {
    ACTOR_DCHECK(i >= 0 && i < rows_) << "row " << i << " of " << rows_;
    return chunks_[static_cast<std::size_t>(i) / kChunkRows].get() +
           (static_cast<std::size_t>(i) % kChunkRows) * stride_;
  }

  std::size_t num_chunks() const { return chunks_.size(); }

  /// Number of chunks physically shared (same buffer pointer) with
  /// `other`. Tests and the publish-cost bench use this to prove the delta
  /// path actually structurally shares instead of re-copying.
  std::size_t SharedChunksWith(const ChunkedMatrix& other) const;

 private:
  using ChunkPtr = std::shared_ptr<const float>;

  /// Allocates one zeroed, kRowAlignment-aligned chunk buffer.
  static ChunkPtr NewChunk(std::size_t stride);
  /// The shared body of FullCopy (null `prev`/`dirty`) and DeltaCopy.
  static ChunkedMatrix CopyChunks(const EmbeddingMatrix& src,
                                  const ChunkedMatrix* prev,
                                  const DirtyRowSet* dirty);

  std::vector<ChunkPtr> chunks_;
  int32_t rows_ = 0;
  int32_t dim_ = 0;
  std::size_t stride_ = 0;
};

}  // namespace actor

#endif  // ACTOR_SERVE_CHUNKED_MATRIX_H_
