#include "serve/chunked_matrix.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace actor {

ChunkedMatrix::ChunkPtr ChunkedMatrix::NewChunk(std::size_t stride) {
  const std::size_t bytes = static_cast<std::size_t>(kChunkRows) * stride *
                            sizeof(float);
  // Same allocation contract as EmbeddingMatrix: aligned_alloc needs the
  // size to be a multiple of the alignment; stride is a multiple of 8
  // floats (32 bytes), so it already is.
  float* p = static_cast<float*>(
      std::aligned_alloc(EmbeddingMatrix::kRowAlignment, bytes));
  ACTOR_CHECK(p != nullptr) << "chunk allocation failed (" << bytes
                            << " bytes)";
  std::memset(p, 0, bytes);
  return ChunkPtr(p, [](const float* q) { std::free(const_cast<float*>(q)); });
}

ChunkedMatrix ChunkedMatrix::CopyChunks(const EmbeddingMatrix& src,
                                        const ChunkedMatrix* prev,
                                        const DirtyRowSet* dirty) {
  const int32_t rows = src.rows();
  const std::size_t stride = src.stride();
  if (prev != nullptr && (prev->dim_ != src.dim() ||
                          prev->stride_ != stride || prev->rows_ > rows)) {
    prev = nullptr;  // incompatible layout — nothing to share
  }
  ChunkedMatrix out;
  out.rows_ = rows;
  out.dim_ = src.dim();
  out.stride_ = stride;
  if (out.empty()) return out;
  const std::size_t num_chunks =
      (static_cast<std::size_t>(rows) + kChunkRows - 1) / kChunkRows;
  out.chunks_.reserve(num_chunks);
  for (std::size_t c = 0; c < num_chunks; ++c) {
    const int32_t begin = static_cast<int32_t>(c) * kChunkRows;
    const int32_t end = std::min(begin + kChunkRows, rows);
    // Share iff the previous snapshot fully covers this chunk's row range
    // and no row in it changed. Rows appended after `prev` are expected to
    // be marked dirty by the trainer, but the coverage check keeps the
    // copy correct even if a caller forgets.
    if (prev != nullptr && end <= prev->rows_ && dirty->rows() >= end &&
        !dirty->AnyInRange(begin, end)) {
      out.chunks_.push_back(prev->chunks_[c]);
      continue;
    }
    // The source rows are contiguous (padding floats included), so the
    // chunk moves with one memcpy.
    ChunkPtr chunk = NewChunk(stride);
    std::memcpy(const_cast<float*>(chunk.get()), src.row(begin),
                static_cast<std::size_t>(end - begin) * stride *
                    sizeof(float));
    out.chunks_.push_back(std::move(chunk));
  }
  return out;
}

ChunkedMatrix ChunkedMatrix::FullCopy(const EmbeddingMatrix& src) {
  return CopyChunks(src, nullptr, nullptr);
}

ChunkedMatrix ChunkedMatrix::DeltaCopy(const EmbeddingMatrix& src,
                                       const ChunkedMatrix& prev,
                                       const DirtyRowSet& dirty) {
  return CopyChunks(src, &prev, &dirty);
}

std::size_t ChunkedMatrix::SharedChunksWith(const ChunkedMatrix& other) const {
  const std::size_t n = std::min(chunks_.size(), other.chunks_.size());
  std::size_t shared = 0;
  for (std::size_t c = 0; c < n; ++c) {
    if (chunks_[c] == other.chunks_[c]) ++shared;
  }
  return shared;
}

}  // namespace actor
