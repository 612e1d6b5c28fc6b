#ifndef ACTOR_SERVE_MODEL_SNAPSHOT_H_
#define ACTOR_SERVE_MODEL_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/record.h"
#include "data/vocabulary.h"
#include "embedding/embedding_matrix.h"
#include "graph/graph_builder.h"
#include "graph/types.h"
#include "hotspot/hotspot_detector.h"
#include "serve/chunked_matrix.h"

namespace actor {

/// The unit catalogue of a streaming model: every unit's type and name,
/// plus the resolvers that map modality values to units. OnlineActor owns
/// the live catalogue and grows it as units appear; every snapshot adopts
/// a copy, so a snapshot resolves exactly like the actor it was published
/// from — both call the same methods below.
struct OnlineCatalog {
  /// A resolved hotspot unit and its distance from the query (km, or
  /// circular hours). `unit` is kInvalidVertex and `distance` +inf when the
  /// catalogue holds no hotspot of that family.
  struct Nearest {
    VertexId unit = kInvalidVertex;
    double distance = std::numeric_limits<double>::infinity();
  };

  /// The spatial hotspot nearest to `location` (ties keep the older one).
  Nearest NearestSpatial(const GeoPoint& location) const;
  /// The temporal hotspot circularly nearest to an hour-of-day.
  Nearest NearestTemporal(double hour) const;
  /// Unit of a vocabulary word id; kInvalidVertex when never seen.
  VertexId WordUnit(int32_t word_id) const;

  std::vector<VertexType> types;  // unit id -> type
  std::vector<std::string> names;  // unit id -> name
  // Hotspot centers, index-aligned with their unit ids.
  std::vector<GeoPoint> spatial_centers;
  std::vector<VertexId> spatial_units;
  std::vector<double> temporal_hours;
  std::vector<VertexId> temporal_units;
  std::unordered_map<int32_t, VertexId> word_units;
};

/// An immutable, versioned bundle of everything the read path needs to
/// answer cross-modal queries: the center embeddings plus the unit
/// catalogue that maps modality values (locations, times, words) to
/// embedding rows.
///
/// Snapshots are the serving boundary of the system (docs/serving.md).
/// Trainers mutate their matrices in place (HOGWILD); queries never touch
/// those matrices. Instead a trainer *publishes*: the embeddings are
/// copied into an immutable ChunkedMatrix and the result is handed out
/// through SnapshotStore's atomic shared_ptr slot. Two publish flavors
/// share one storage layout:
///   - full copy (every batch snapshot, and the online path's first
///     publish): every chunk is materialized, O(units x dim) per publish;
///   - delta publish (every later online publish): only chunks containing
///     rows the trainer marked dirty since the previous snapshot are
///     copied; every clean chunk — and the whole unit catalogue when no
///     unit was added — is shared with the previous snapshot by
///     shared_ptr, so publish cost is proportional to the ingest batch.
/// Either way a query holding a snapshot sees one consistent model
/// version forever — later publishes swap chunk *pointers*, never chunk
/// contents — and readers never block writers.
///
/// Two factory paths cover the two trainers:
///   - FromBatch: wraps a finished TrainActor model's center matrix
///     together with the batch pipeline's BuiltGraphs / Hotspots /
///     Vocabulary (shared, immutable after construction by contract);
///     PreparedDataset::Snapshot fills these in.
///   - FromOnline / WithCenter: wraps a copy of OnlineActor's unit
///     catalogue — built by OnlineActor::PublishSnapshot.
///
/// All resolution methods are const, thread-safe, and bit-identical to the
/// pre-snapshot code paths they replaced (the batch path delegates to the
/// same Hotspots::Assign / lookup tables; the online path calls the same
/// OnlineCatalog methods as OnlineActor::SpatialUnit/TemporalUnit/WordUnit).
class ModelSnapshot {
 public:
  /// Publishes a batch-trained model. `center` is copied into chunked
  /// storage. `graphs` and `hotspots` are required; `vocab` may be null,
  /// in which case KeywordVertex()/LookupWord() report every keyword as
  /// unknown. The shared structures must not be mutated after publishing.
  static std::shared_ptr<const ModelSnapshot> FromBatch(
      const EmbeddingMatrix& center, std::shared_ptr<const BuiltGraphs> graphs,
      std::shared_ptr<const Hotspots> hotspots,
      std::shared_ptr<const Vocabulary> vocab, uint64_t version);

  /// Publishes a streaming model: `center` holds the frozen rows in
  /// unit-id order (built by ChunkedMatrix::FullCopy, or DeltaCopy against
  /// the previous snapshot) and `catalog` — a copy of the actor's — is
  /// adopted.
  static std::shared_ptr<const ModelSnapshot> FromOnline(
      ChunkedMatrix center, OnlineCatalog catalog, uint64_t version);

  /// A new online snapshot over `center` that shares this snapshot's whole
  /// catalogue state: the delta publish when no unit was added since this
  /// snapshot. Requires num_units() == center.rows().
  std::shared_ptr<const ModelSnapshot> WithCenter(ChunkedMatrix center,
                                                  uint64_t version) const;

  /// Monotonic model version. Batch snapshots carry the caller's stamp;
  /// online snapshots use the OnlineEdgeStore::version() scheme (sum of
  /// the per-edge-type store versions plus the batch count), so any
  /// Ingest() that changed the model is visible as a version bump.
  uint64_t version() const { return version_; }

  /// The frozen center embeddings. One row per unit in the catalogue.
  const ChunkedMatrix& center() const { return center_; }
  int32_t dim() const { return center_.dim(); }
  int32_t num_units() const { return center_.rows(); }

  // --- Unit catalogue -----------------------------------------------------

  /// All units of `type`, in id order.
  const std::vector<VertexId>& VerticesOfType(VertexType type) const;
  VertexType vertex_type(VertexId v) const;
  const std::string& vertex_name(VertexId v) const;

  // --- Modality resolution (kInvalidVertex when unresolvable) -------------

  /// Unit of the spatial hotspot nearest to `location`.
  VertexId SpatialVertex(const GeoPoint& location) const;
  /// Unit of the temporal hotspot circularly nearest to a raw timestamp
  /// (seconds).
  VertexId TemporalVertexAt(double timestamp) const;
  /// Unit of the temporal hotspot circularly nearest to an hour-of-day.
  VertexId TemporalVertexAtHour(double hour) const;
  /// Unit of a vocabulary word id; kInvalidVertex when the id is out of
  /// range or the word never made it into the model.
  VertexId WordVertex(int32_t word_id) const;
  /// Vocabulary id of `keyword`; -1 when unknown (always -1 without a
  /// vocabulary — streaming snapshots resolve word ids, not strings).
  int32_t LookupWord(const std::string& keyword) const;
  bool has_vocab() const { return vocab_ != nullptr; }

 private:
  /// The online path's resolver state plus the per-type id lists derived
  /// from it. Held by shared_ptr so a delta publish with an unchanged unit
  /// set shares the whole structure instead of re-copying O(units)
  /// strings per publish.
  struct CatalogState {
    OnlineCatalog catalog;
    std::vector<VertexId> of_type[kNumVertexTypes];
  };

  ModelSnapshot() = default;

  static std::shared_ptr<const CatalogState> MakeCatalogState(
      OnlineCatalog catalog);

  uint64_t version_ = 0;
  ChunkedMatrix center_;  // owned or chunk-shared

  // Batch path: shared immutable structures from the eval pipeline.
  std::shared_ptr<const BuiltGraphs> graphs_;
  std::shared_ptr<const Hotspots> hotspots_;
  std::shared_ptr<const Vocabulary> vocab_;

  // Online path (graphs_ == nullptr): resolver state, shared across delta
  // publishes while the unit set is unchanged.
  std::shared_ptr<const CatalogState> online_;
};

/// The one mutable cell of the serving layer: an atomically swappable slot
/// holding the latest published snapshot. Publish() installs a new version
/// (writer side, typically the ingest thread); Acquire() grabs a reference
/// to whatever is current (any thread, lock-free on libstdc++'s atomic
/// shared_ptr). Readers keep their snapshot alive through the shared_ptr
/// refcount, so a publish never invalidates an in-flight query.
///
/// TSan builds swap in the free-function atomic shared_ptr overloads:
/// libstdc++'s std::atomic<shared_ptr> guards its raw pointer with a
/// packed lock *bit* that ThreadSanitizer cannot model (it reports the
/// guarded plain pointer accesses as races), while the free functions
/// lock a pthread-mutex pool TSan fully understands. Same release/acquire
/// publication contract either way — this keeps tsan.supp empty.
#if defined(__cpp_lib_atomic_shared_ptr) && !defined(ACTOR_TSAN)
#define ACTOR_SERVE_ATOMIC_SHARED_PTR 1
#endif

class SnapshotStore {
 public:
  SnapshotStore() = default;
  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  void Publish(std::shared_ptr<const ModelSnapshot> snapshot) {
#if defined(ACTOR_SERVE_ATOMIC_SHARED_PTR)
    slot_.store(std::move(snapshot), std::memory_order_release);
#else
    std::atomic_store_explicit(&slot_, std::move(snapshot),
                               std::memory_order_release);
#endif
  }

  /// Latest published snapshot; null before the first Publish().
  std::shared_ptr<const ModelSnapshot> Acquire() const {
#if defined(ACTOR_SERVE_ATOMIC_SHARED_PTR)
    return slot_.load(std::memory_order_acquire);
#else
    return std::atomic_load_explicit(&slot_, std::memory_order_acquire);
#endif
  }

 private:
#if defined(ACTOR_SERVE_ATOMIC_SHARED_PTR)
  std::atomic<std::shared_ptr<const ModelSnapshot>> slot_;
#else
  // TSan / pre-C++20 path: the free-function atomic shared_ptr overloads.
  std::shared_ptr<const ModelSnapshot> slot_;
#endif
};

}  // namespace actor

#endif  // ACTOR_SERVE_MODEL_SNAPSHOT_H_
