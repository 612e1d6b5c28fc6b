// ModelSnapshot / SnapshotStore: both factory paths must resolve
// modalities exactly like the structures they froze, versions must be
// monotone, and a handle acquired before further ingests must keep
// scoring the model it captured (snapshot isolation).

#include "serve/model_snapshot.h"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/actor.h"
#include "core/online_actor.h"
#include "data/synthetic.h"
#include "eval/pipeline.h"
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

// --- Batch path ------------------------------------------------------------

class BatchSnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PipelineOptions pipeline = UTGeoPipeline(0.1);
    pipeline.synthetic.num_records = 1500;
    pipeline.synthetic.seed = 11;
    auto prepared = PrepareDataset(pipeline, "snapshot-test");
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    data_ = new PreparedDataset(prepared.MoveValueOrDie());
    ActorOptions options;
    options.dim = 16;
    options.epochs = 3;
    options.samples_per_edge = 4;
    auto model = TrainActor(*data_->graphs, options);
    ASSERT_TRUE(model.ok());
    model_ = new ActorModel(model.MoveValueOrDie());
  }
  static void TearDownTestSuite() {
    delete model_;
    delete data_;
    model_ = nullptr;
    data_ = nullptr;
  }

  static PreparedDataset* data_;
  static ActorModel* model_;
};

PreparedDataset* BatchSnapshotTest::data_ = nullptr;
ActorModel* BatchSnapshotTest::model_ = nullptr;

TEST_F(BatchSnapshotTest, CenterIsDeepCopiedBitExactly) {
  auto snap = data_->Snapshot(model_->center, /*version=*/7);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version(), 7u);
  ASSERT_EQ(snap->num_units(), model_->center.rows());
  ASSERT_EQ(snap->dim(), model_->center.dim());
  for (int32_t v = 0; v < snap->num_units(); ++v) {
    for (int32_t d = 0; d < snap->dim(); ++d) {
      ASSERT_EQ(snap->center().row(v)[d], model_->center.row(v)[d])
          << "v=" << v << " d=" << d;
    }
  }
  // A deep copy: mutating the training matrix must not leak into the
  // published snapshot.
  const float before = snap->center().row(0)[0];
  model_->center.row(0)[0] = before + 42.0f;
  EXPECT_EQ(snap->center().row(0)[0], before);
  model_->center.row(0)[0] = before;
}

TEST_F(BatchSnapshotTest, ResolutionMatchesPipelineStructures) {
  auto snap = data_->Snapshot(model_->center);
  for (std::size_t i = 0; i < data_->test.size(); ++i) {
    const TokenizedRecord& rec = data_->test.record(i);
    const int32_t sh = data_->hotspots->spatial.Assign(rec.location);
    ASSERT_GE(sh, 0);
    EXPECT_EQ(snap->SpatialVertex(rec.location),
              data_->graphs->spatial_vertices[sh]);
    const int32_t th = data_->hotspots->temporal.Assign(rec.timestamp);
    ASSERT_GE(th, 0);
    EXPECT_EQ(snap->TemporalVertexAt(rec.timestamp),
              data_->graphs->temporal_vertices[th]);
    for (const int32_t w : rec.word_ids) {
      EXPECT_EQ(snap->WordVertex(w), data_->graphs->word_vertices[w]);
    }
  }
  EXPECT_TRUE(snap->has_vocab());
  const std::string word = data_->full.vocab().word(0);
  EXPECT_EQ(snap->LookupWord(word), data_->full.vocab().Lookup(word));
  EXPECT_EQ(snap->LookupWord("definitely_not_a_word"), -1);
}

TEST_F(BatchSnapshotTest, CatalogueMatchesActivityGraph) {
  auto snap = data_->Snapshot(model_->center);
  for (VertexType type : {VertexType::kTime, VertexType::kLocation,
                          VertexType::kWord, VertexType::kUser}) {
    EXPECT_EQ(snap->VerticesOfType(type),
              data_->graphs->activity.VerticesOfType(type));
  }
  for (VertexId v = 0; v < snap->num_units(); ++v) {
    EXPECT_EQ(snap->vertex_type(v), data_->graphs->activity.vertex_type(v));
    EXPECT_EQ(snap->vertex_name(v), data_->graphs->activity.vertex_name(v));
  }
}

TEST_F(BatchSnapshotTest, NullVocabMakesKeywordsUnknown) {
  auto snap = ModelSnapshot::FromBatch(model_->center, data_->graphs,
                                       data_->hotspots, /*vocab=*/nullptr,
                                       /*version=*/1);
  EXPECT_FALSE(snap->has_vocab());
  EXPECT_EQ(snap->LookupWord(data_->full.vocab().word(0)), -1);
}

// --- Online path -----------------------------------------------------------

TEST(OnlineSnapshotTest, ResolutionMatchesActorAccessors) {
  auto actor = OnlineActor::Create(FastOnlineOptions());
  ASSERT_TRUE(actor.ok());
  const auto batches = MakeBatches(800, 2);
  ASSERT_TRUE(actor->Ingest(batches[0]).ok());
  ASSERT_TRUE(actor->Ingest(batches[1]).ok());
  auto snap = actor->PublishSnapshot();
  ASSERT_NE(snap, nullptr);
  ASSERT_EQ(snap->num_units(), actor->num_units());
  for (const TokenizedRecord& rec : batches[1]) {
    EXPECT_EQ(snap->SpatialVertex(rec.location),
              actor->SpatialUnit(rec.location));
    EXPECT_EQ(snap->TemporalVertexAt(rec.timestamp),
              actor->TemporalUnit(rec.timestamp));
    for (const int32_t w : rec.word_ids) {
      EXPECT_EQ(snap->WordVertex(w), actor->WordUnit(w));
    }
  }
  for (VertexId v = 0; v < snap->num_units(); ++v) {
    EXPECT_EQ(snap->vertex_type(v), actor->unit_type(v));
    EXPECT_EQ(snap->vertex_name(v), actor->unit_name(v));
    for (int32_t d = 0; d < snap->dim(); ++d) {
      ASSERT_EQ(snap->center().row(v)[d], actor->center().row(v)[d]);
    }
  }
  // Streaming snapshots carry word ids, not strings.
  EXPECT_FALSE(snap->has_vocab());
}

TEST(OnlineSnapshotTest, OfTypeListsPartitionTheCatalogue) {
  auto actor = OnlineActor::Create(FastOnlineOptions());
  ASSERT_TRUE(actor.ok());
  ASSERT_TRUE(actor->Ingest(MakeBatches(500, 1)[0]).ok());
  auto snap = actor->PublishSnapshot();
  std::size_t total = 0;
  for (int t = 0; t < kNumVertexTypes; ++t) {
    const auto type = static_cast<VertexType>(t);
    for (VertexId v : snap->VerticesOfType(type)) {
      EXPECT_EQ(snap->vertex_type(v), type);
    }
    total += snap->VerticesOfType(type).size();
  }
  EXPECT_EQ(total, static_cast<std::size_t>(snap->num_units()));
}

TEST(OnlineSnapshotTest, VersionIsMonotoneAcrossPublishes) {
  auto actor = OnlineActor::Create(FastOnlineOptions());
  ASSERT_TRUE(actor.ok());
  const auto batches = MakeBatches(900, 3);
  uint64_t last = 0;
  for (const auto& batch : batches) {
    ASSERT_TRUE(actor->Ingest(batch).ok());
    auto snap = actor->PublishSnapshot();
    ASSERT_NE(snap, nullptr);
    EXPECT_GT(snap->version(), last);
    last = snap->version();
  }
  // A pure-decay tick still bumps the version via the batch count.
  ASSERT_TRUE(actor->Ingest({}).ok());
  EXPECT_GT(actor->PublishSnapshot()->version(), last);
}

TEST(OnlineSnapshotTest, CurrentSnapshotTracksLatestPublish) {
  auto actor = OnlineActor::Create(FastOnlineOptions());
  ASSERT_TRUE(actor.ok());
  EXPECT_EQ(actor->CurrentSnapshot(), nullptr);
  ASSERT_TRUE(actor->Ingest(MakeBatches(400, 1)[0]).ok());
  auto first = actor->PublishSnapshot();
  EXPECT_EQ(actor->CurrentSnapshot(), first);
  ASSERT_TRUE(actor->Ingest({}).ok());
  auto second = actor->PublishSnapshot();
  EXPECT_EQ(actor->CurrentSnapshot(), second);
  EXPECT_NE(first, second);
  // The old handle stays alive and unchanged.
  EXPECT_LT(first->version(), second->version());
}

TEST(OnlineSnapshotTest, HandleScoresIdenticallyAfterFurtherIngest) {
  // Snapshot isolation: queries through a handle acquired before an
  // Ingest() must return bit-identical scores after it.
  auto actor = OnlineActor::Create(FastOnlineOptions());
  ASSERT_TRUE(actor.ok());
  const auto batches = MakeBatches(900, 3);
  ASSERT_TRUE(actor->Ingest(batches[0]).ok());
  auto handle = actor->PublishSnapshot();
  ASSERT_NE(handle, nullptr);

  const std::vector<float> query(handle->center().row(0),
                                 handle->center().row(0) + handle->dim());
  QueryEngine engine(handle);
  auto before = engine.QueryByVector(query.data(), VertexType::kWord, 10);
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(actor->Ingest(batches[1]).ok());
  ASSERT_TRUE(actor->Ingest(batches[2]).ok());
  actor->PublishSnapshot();

  auto after = engine.QueryByVector(query.data(), VertexType::kWord, 10);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before->size(), after->size());
  for (std::size_t i = 0; i < before->size(); ++i) {
    EXPECT_EQ((*before)[i].vertex, (*after)[i].vertex);
    EXPECT_EQ((*before)[i].similarity, (*after)[i].similarity);
  }
}

// --- Non-finite query input ------------------------------------------------
// A non-finite location, hour or query vector is InvalidArgument on both
// snapshot flavours, ahead of the k check; it never reaches hotspot
// resolution or the top-k sort.

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

void ExpectNonFiniteRejected(const Result<std::vector<Neighbor>>& r) {
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  EXPECT_NE(r.status().message().find("finite"), std::string::npos)
      << r.status().ToString();
}

void ExpectRejectsNonFiniteLocations(const QueryEngine& engine) {
  for (const GeoPoint& p : {GeoPoint{kNaN, 0.0}, GeoPoint{0.0, kNaN},
                            GeoPoint{kInf, 0.0}, GeoPoint{0.0, -kInf}}) {
    ExpectNonFiniteRejected(engine.QueryByLocation(p, VertexType::kWord, 5));
    ExpectNonFiniteRejected(engine.QueryByLocation(p, VertexType::kWord, 0));
  }
}

void ExpectRejectsNonFiniteHours(const QueryEngine& engine) {
  for (double hour : {kNaN, kInf, -kInf}) {
    ExpectNonFiniteRejected(engine.QueryByHour(hour, VertexType::kWord, 5));
    ExpectNonFiniteRejected(engine.QueryByHour(hour, VertexType::kWord, 0));
  }
}

void ExpectRejectsNonFiniteVectors(const QueryEngine& engine) {
  const ModelSnapshot& snap = engine.snapshot();
  for (float bad : {static_cast<float>(kNaN), static_cast<float>(kInf)}) {
    std::vector<float> query(snap.center().row(0),
                             snap.center().row(0) + snap.dim());
    query[static_cast<std::size_t>(snap.dim()) - 1] = bad;
    ExpectNonFiniteRejected(
        engine.QueryByVector(query.data(), VertexType::kWord, 5));
    ExpectNonFiniteRejected(
        engine.QueryByVector(query.data(), VertexType::kWord, 0));
  }
}

std::shared_ptr<const ModelSnapshot> OnlineQuerySnapshot() {
  auto actor = OnlineActor::Create(FastOnlineOptions());
  EXPECT_TRUE(actor.ok());
  EXPECT_TRUE(actor->Ingest(MakeBatches(500, 1)[0]).ok());
  return actor->PublishSnapshot();
}

TEST_F(BatchSnapshotTest, QueryRejectsNonFiniteLocation) {
  ExpectRejectsNonFiniteLocations(QueryEngine(data_->Snapshot(model_->center)));
}

TEST_F(BatchSnapshotTest, QueryRejectsNonFiniteHour) {
  ExpectRejectsNonFiniteHours(QueryEngine(data_->Snapshot(model_->center)));
}

TEST_F(BatchSnapshotTest, QueryRejectsNonFiniteVector) {
  ExpectRejectsNonFiniteVectors(QueryEngine(data_->Snapshot(model_->center)));
}

TEST(OnlineSnapshotTest, QueryRejectsNonFiniteLocation) {
  ExpectRejectsNonFiniteLocations(QueryEngine(OnlineQuerySnapshot()));
}

TEST(OnlineSnapshotTest, QueryRejectsNonFiniteHour) {
  ExpectRejectsNonFiniteHours(QueryEngine(OnlineQuerySnapshot()));
}

TEST(OnlineSnapshotTest, QueryRejectsNonFiniteVector) {
  ExpectRejectsNonFiniteVectors(QueryEngine(OnlineQuerySnapshot()));
}

TEST(OnlineSnapshotTest, NonFiniteRequestLeavesTheRestOfABatchUnchanged) {
  const QueryEngine engine(OnlineQuerySnapshot());
  const ModelSnapshot& snap = engine.snapshot();
  const GeoPoint probe = MakeBatches(500, 1)[0].front().location;
  const std::vector<float> query(snap.center().row(1),
                                 snap.center().row(1) + snap.dim());
  const auto results = engine.QueryBatch(
      {BatchQuery::Location(probe, VertexType::kWord, 6),
       BatchQuery::Location({kNaN, probe.y}, VertexType::kWord, 6),
       BatchQuery::Hour(9.5, VertexType::kWord, 4),
       BatchQuery::Vector(query.data(), VertexType::kWord, 5, 1)});
  ASSERT_EQ(results.size(), 4u);
  ExpectNonFiniteRejected(results[1]);
  const std::vector<Result<std::vector<Neighbor>>> alone = {
      engine.QueryByLocation(probe, VertexType::kWord, 6),
      engine.QueryByHour(9.5, VertexType::kWord, 4),
      engine.QueryByVector(query.data(), VertexType::kWord, 5, 1)};
  const std::size_t good[] = {0, 2, 3};  // the batch slots of `alone`
  for (std::size_t i = 0; i < alone.size(); ++i) {
    const auto& got = results[good[i]];
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(alone[i].ok()) << alone[i].status().ToString();
    ASSERT_EQ(got->size(), alone[i]->size());
    for (std::size_t j = 0; j < got->size(); ++j) {
      EXPECT_EQ((*got)[j].vertex, (*alone[i])[j].vertex);
      EXPECT_EQ((*got)[j].similarity, (*alone[i])[j].similarity);
    }
  }
}

// --- SnapshotStore ---------------------------------------------------------

TEST(SnapshotStoreTest, PublishAcquireRoundTrip) {
  SnapshotStore store;
  EXPECT_EQ(store.Acquire(), nullptr);
  EmbeddingMatrix m(4, 8);
  auto snap =
      ModelSnapshot::FromOnline(ChunkedMatrix::FullCopy(m), {}, /*version=*/3);
  store.Publish(snap);
  EXPECT_EQ(store.Acquire(), snap);
  auto newer =
      ModelSnapshot::FromOnline(ChunkedMatrix::FullCopy(m), {}, /*version=*/4);
  store.Publish(newer);
  EXPECT_EQ(store.Acquire(), newer);
  // The superseded snapshot survives as long as someone holds it.
  EXPECT_EQ(snap->version(), 3u);
}

}  // namespace
}  // namespace actor
