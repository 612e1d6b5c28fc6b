// Delta publish (dirty-row tracking + chunk-COW snapshots): every delta
// publish must be bit-identical to a full copy of the live model in
// snapshot contents AND query results; clean chunks must actually be
// shared; versions stay monotone under interleaved publishes from both
// trainers; and a snapshot handle stays frozen while later deltas land.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/actor.h"
#include "core/online_actor.h"
#include "data/synthetic.h"
#include "embedding/dirty_rows.h"
#include "eval/pipeline.h"
#include "serve/chunked_matrix.h"
#include "serve/model_snapshot.h"
#include "serve/query_engine.h"

namespace actor {
namespace {

std::vector<std::vector<TokenizedRecord>> MakeBatches(int records,
                                                      int batches,
                                                      uint64_t seed = 5) {
  SyntheticConfig config;
  config.seed = seed;
  config.num_records = records;
  config.num_users = 60;
  config.num_communities = 4;
  config.num_topics = 6;
  config.num_venues = 12;
  config.keywords_per_topic = 15;
  config.background_vocab = 30;
  auto ds = GenerateSynthetic(config);
  EXPECT_TRUE(ds.ok());
  CorpusBuildOptions build;
  build.min_word_count = 1;
  auto corpus = TokenizedCorpus::Build(ds->corpus, build);
  EXPECT_TRUE(corpus.ok());
  std::vector<std::vector<TokenizedRecord>> out(batches);
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    out[i * batches / corpus->size()].push_back(corpus->record(i));
  }
  return out;
}

OnlineActorOptions FastOnlineOptions() {
  OnlineActorOptions o;
  o.dim = 16;
  o.samples_per_edge_per_batch = 2.0;
  return o;
}

bool SameMatrix(const ChunkedMatrix& a, const ChunkedMatrix& b) {
  if (a.rows() != b.rows() || a.dim() != b.dim()) return false;
  for (int32_t r = 0; r < a.rows(); ++r) {
    if (std::memcmp(a.row(r), b.row(r),
                    sizeof(float) * static_cast<std::size_t>(a.dim())) != 0) {
      return false;
    }
  }
  return true;
}

bool SameNeighbors(const std::vector<Neighbor>& a,
                   const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].vertex != b[i].vertex || a[i].name != b[i].name ||
        a[i].similarity != b[i].similarity) {
      return false;
    }
  }
  return true;
}

// --- Delta publishes are bit-identical to full copies ----------------------

TEST(DeltaPublishABTest, OnlineDeltaMatchesFullCopyBitIdentical) {
  // After every batch, the published (delta after the first) snapshot must
  // agree bit-for-bit with a full copy of the live model: same matrix
  // contents, same catalogue, same query results.
  const auto batches = MakeBatches(900, 4);
  auto model = OnlineActor::Create(FastOnlineOptions());
  ASSERT_TRUE(model.ok());

  const GeoPoint probe = batches[0].front().location;
  const std::size_t dim = static_cast<std::size_t>(model->center().dim());
  for (const auto& batch : batches) {
    ASSERT_TRUE(model->Ingest(batch).ok());
    auto ds = model->PublishSnapshot();
    ASSERT_NE(ds, nullptr);
    auto fs = ModelSnapshot::FromOnline(
        ChunkedMatrix::FullCopy(model->center()), model->catalog(),
        ds->version());
    EXPECT_EQ(ds->num_units(), fs->num_units());
    EXPECT_TRUE(SameMatrix(ds->center(), fs->center()));
    for (VertexId v = 0; v < ds->num_units(); ++v) {
      EXPECT_EQ(std::memcmp(ds->center().row(v), model->center().row(v),
                            sizeof(float) * dim),
                0)
          << "row " << v << " differs from the live model";
    }
    for (VertexId v = 0; v < ds->num_units(); ++v) {
      EXPECT_EQ(ds->vertex_type(v), fs->vertex_type(v));
      EXPECT_EQ(ds->vertex_name(v), fs->vertex_name(v));
    }

    QueryEngine dq(ds), fq(fs);
    auto dw = dq.QueryByLocation(probe, VertexType::kWord, 8);
    auto fw = fq.QueryByLocation(probe, VertexType::kWord, 8);
    ASSERT_TRUE(dw.ok());
    ASSERT_TRUE(fw.ok());
    EXPECT_TRUE(SameNeighbors(*dw, *fw));
    auto dh = dq.QueryByHour(13.0, VertexType::kLocation, 5);
    auto fh = fq.QueryByHour(13.0, VertexType::kLocation, 5);
    ASSERT_TRUE(dh.ok());
    ASSERT_TRUE(fh.ok());
    EXPECT_TRUE(SameNeighbors(*dh, *fh));
  }
}

// --- Chunk sharing and the no-op publish ------------------------------------

TEST(DeltaPublishTest, CleanChunksAreSharedWithPreviousSnapshot) {
  const auto batches = MakeBatches(900, 2);
  auto model = OnlineActor::Create(FastOnlineOptions());
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  auto base = model->PublishSnapshot();
  ASSERT_NE(base, nullptr);
  const int32_t n = model->center().rows();
  ASSERT_GT(n, 2 * ChunkedMatrix::kChunkRows);  // several chunks to share

  // Delta with a few dirty rows in the FIRST chunk only: every other
  // chunk must be shared by pointer, and the contents must still equal
  // the source matrix exactly.
  DirtyRowSet dirty;
  dirty.Resize(n);
  dirty.Mark(0);
  dirty.Mark(ChunkedMatrix::kChunkRows - 1);
  auto delta = base->WithCenter(
      ChunkedMatrix::DeltaCopy(model->center(), base->center(), dirty),
      base->version() + 1);
  ASSERT_NE(delta, nullptr);
  EXPECT_EQ(delta->center().num_chunks(), base->center().num_chunks());
  EXPECT_EQ(delta->center().SharedChunksWith(base->center()),
            base->center().num_chunks() - 1);
  EXPECT_TRUE(SameMatrix(delta->center(), base->center()));

  // A fully-dirty delta shares nothing but still matches.
  DirtyRowSet all;
  all.Resize(n);
  all.MarkAll();
  auto fresh = base->WithCenter(
      ChunkedMatrix::DeltaCopy(model->center(), base->center(), all),
      base->version() + 2);
  EXPECT_EQ(fresh->center().SharedChunksWith(base->center()), 0);
  EXPECT_TRUE(SameMatrix(fresh->center(), base->center()));
}

TEST(DeltaPublishTest, PublishWithoutIngestIsANoOp) {
  const auto batches = MakeBatches(600, 2);
  auto model = OnlineActor::Create(FastOnlineOptions());
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  auto first = model->PublishSnapshot();
  ASSERT_NE(first, nullptr);
  // No Ingest() in between: the model version is unchanged, so publish
  // must hand back the already-published snapshot, not a new copy.
  auto second = model->PublishSnapshot();
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(model->CurrentSnapshot().get(), first.get());
  // The next real batch resumes normal (new-snapshot) publishes.
  ASSERT_TRUE(model->Ingest(batches[1]).ok());
  auto third = model->PublishSnapshot();
  ASSERT_NE(third, nullptr);
  EXPECT_NE(third.get(), first.get());
  EXPECT_GT(third->version(), first->version());
}

// --- Snapshot isolation under interleaved delta publishes ------------------

TEST(DeltaPublishTest, OldSnapshotStaysFrozenWhileNewChunksLand) {
  const auto batches = MakeBatches(900, 4);
  auto model = OnlineActor::Create(FastOnlineOptions());
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  auto held = model->PublishSnapshot();
  ASSERT_NE(held, nullptr);

  // Copy a prefix of the held snapshot's rows and a query result.
  const int32_t probe_rows = held->num_units();
  std::vector<std::vector<float>> frozen(
      static_cast<std::size_t>(probe_rows));
  for (int32_t r = 0; r < probe_rows; ++r) {
    frozen[static_cast<std::size_t>(r)].assign(
        held->center().row(r), held->center().row(r) + held->dim());
  }
  QueryEngine held_engine(held);
  const GeoPoint probe = batches[0].front().location;
  auto before = held_engine.QueryByLocation(probe, VertexType::kWord, 8);
  ASSERT_TRUE(before.ok());

  // Keep training and delta-publishing over the held snapshot's chunks.
  uint64_t last_version = held->version();
  for (std::size_t b = 1; b < batches.size(); ++b) {
    ASSERT_TRUE(model->Ingest(batches[b]).ok());
    auto snap = model->PublishSnapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_GT(snap->version(), last_version);  // monotone under deltas
    last_version = snap->version();
  }

  // The held snapshot must be byte-for-byte what it was at acquire time —
  // later publishes swap chunk pointers, never chunk contents.
  for (int32_t r = 0; r < probe_rows; ++r) {
    EXPECT_EQ(std::memcmp(frozen[static_cast<std::size_t>(r)].data(),
                          held->center().row(r),
                          sizeof(float) * static_cast<std::size_t>(
                              held->dim())),
              0)
        << "row " << r << " mutated under the held snapshot";
  }
  auto after = held_engine.QueryByLocation(probe, VertexType::kWord, 8);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(SameNeighbors(*before, *after));
}

TEST(DeltaPublishTest, InterleavedTrainerPublishesStayMonotonePerTrainer) {
  // One SnapshotStore fed by both trainers (the serving layer does not
  // care who published): each trainer's own version sequence must be
  // strictly increasing, and the store always serves the latest publish.
  PipelineOptions pipeline = UTGeoPipeline(0.1);
  pipeline.synthetic.num_records = 1200;
  auto prepared = PrepareDataset(pipeline, "delta-interleave");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ActorOptions actor_options;
  actor_options.dim = 16;
  actor_options.epochs = 1;
  actor_options.samples_per_edge = 1;
  auto batch_model = TrainActor(*prepared->graphs, actor_options);
  ASSERT_TRUE(batch_model.ok()) << batch_model.status().ToString();

  const auto batches = MakeBatches(900, 3);
  auto online = OnlineActor::Create(FastOnlineOptions());
  ASSERT_TRUE(online.ok());

  SnapshotStore store;
  // Batch publish (always a full copy).
  auto batch_snap = ModelSnapshot::FromBatch(
      batch_model->center, prepared->graphs, prepared->hotspots,
      prepared->vocab, /*version=*/1);
  ASSERT_NE(batch_snap, nullptr);
  store.Publish(batch_snap);
  EXPECT_EQ(store.Acquire().get(), batch_snap.get());

  uint64_t online_version = 0;
  for (const auto& batch : batches) {
    ASSERT_TRUE(online->Ingest(batch).ok());
    auto online_snap = online->PublishSnapshot();
    ASSERT_NE(online_snap, nullptr);
    EXPECT_GT(online_snap->version(), online_version);
    online_version = online_snap->version();
    store.Publish(online_snap);
    EXPECT_EQ(store.Acquire().get(), online_snap.get());
  }
}

}  // namespace
}  // namespace actor
