// Direct unit tests for EmbeddingCrossModalModel: unit resolution, query
// composition, and unresolvable-candidate behaviour, on a handcrafted
// 2-record world where the expected geometry is known exactly.

#include "eval/cross_modal_model.h"

#include <gtest/gtest.h>

#include <memory>

#include "data/corpus.h"
#include "serve/model_snapshot.h"
#include "util/vec_math.h"

namespace actor {
namespace {

class CrossModalModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Corpus raw;
    RawRecord a;
    a.id = 0;
    a.user_id = 1;
    a.timestamp = 9 * 3600.0;
    a.location = {2, 2};
    a.text = "coffee breakfast";
    raw.Add(a);
    RawRecord b;
    b.id = 1;
    b.user_id = 2;
    b.timestamp = 21 * 3600.0;
    b.location = {30, 30};
    b.text = "cinema night";
    raw.Add(b);
    CorpusBuildOptions build;
    build.min_word_count = 1;
    auto corpus = TokenizedCorpus::Build(raw, build);
    ASSERT_TRUE(corpus.ok());
    corpus_ = new TokenizedCorpus(corpus.MoveValueOrDie());
    auto hotspots = DetectHotspots(*corpus_);
    ASSERT_TRUE(hotspots.ok());
    hotspots_ = std::make_shared<const Hotspots>(hotspots.MoveValueOrDie());
    auto graphs = BuildGraphs(*corpus_, *hotspots_);
    ASSERT_TRUE(graphs.ok());
    graphs_ = std::make_shared<const BuiltGraphs>(graphs.MoveValueOrDie());

    // Hand-crafted embedding: record-0 units along +x, record-1 units
    // along +y, so cross-record cosine is exactly 0.
    center_ = new EmbeddingMatrix(graphs_->activity.num_vertices(), 2);
    const auto& units0 = graphs_->record_units[0];
    const auto& units1 = graphs_->record_units[1];
    auto set_unit = [&](VertexId v, float x, float y) {
      center_->row(v)[0] = x;
      center_->row(v)[1] = y;
    };
    set_unit(units0.time_unit, 1.0f, 0.0f);
    set_unit(units0.location_unit, 1.0f, 0.0f);
    for (VertexId w : units0.word_units) set_unit(w, 1.0f, 0.0f);
    set_unit(units1.time_unit, 0.0f, 1.0f);
    set_unit(units1.location_unit, 0.0f, 1.0f);
    for (VertexId w : units1.word_units) set_unit(w, 0.0f, 1.0f);
    // Publish after the handcrafted vectors are in place: the snapshot
    // deep-copies the matrix at this point.
    snapshot_ = ModelSnapshot::FromBatch(*center_, graphs_, hotspots_,
                                         /*vocab=*/nullptr, /*version=*/1);
  }
  static void TearDownTestSuite() {
    snapshot_.reset();
    delete center_;
    graphs_.reset();
    hotspots_.reset();
    delete corpus_;
    center_ = nullptr;
    corpus_ = nullptr;
  }

  EmbeddingCrossModalModel Model() const {
    return EmbeddingCrossModalModel("test", snapshot_);
  }

  static int32_t WordId(const std::string& w) {
    return corpus_->vocab().Lookup(w);
  }

  static TokenizedCorpus* corpus_;
  static std::shared_ptr<const Hotspots> hotspots_;
  static std::shared_ptr<const BuiltGraphs> graphs_;
  static EmbeddingMatrix* center_;
  static std::shared_ptr<const ModelSnapshot> snapshot_;
};

TokenizedCorpus* CrossModalModelTest::corpus_ = nullptr;
std::shared_ptr<const Hotspots> CrossModalModelTest::hotspots_;
std::shared_ptr<const BuiltGraphs> CrossModalModelTest::graphs_;
EmbeddingMatrix* CrossModalModelTest::center_ = nullptr;
std::shared_ptr<const ModelSnapshot> CrossModalModelTest::snapshot_;

TEST_F(CrossModalModelTest, MatchingRecordScoresOne) {
  auto model = Model();
  // Record 0's own modalities: all unit vectors identical -> cosine 1.
  EXPECT_NEAR(model.ScoreText(9 * 3600.0, {2, 2}, {WordId("coffee")}), 1.0,
              1e-6);
  EXPECT_NEAR(
      model.ScoreLocation(9 * 3600.0, {WordId("breakfast")}, {2, 2}), 1.0,
      1e-6);
  EXPECT_NEAR(model.ScoreTime({2, 2}, {WordId("coffee")}, 9 * 3600.0), 1.0,
              1e-6);
}

TEST_F(CrossModalModelTest, MismatchedRecordScoresZero) {
  auto model = Model();
  // Record 0's context vs record 1's candidates: orthogonal -> 0.
  EXPECT_NEAR(model.ScoreText(9 * 3600.0, {2, 2}, {WordId("cinema")}), 0.0,
              1e-6);
  EXPECT_NEAR(model.ScoreLocation(9 * 3600.0, {WordId("coffee")}, {30, 30}),
              0.0, 1e-6);
  EXPECT_NEAR(model.ScoreTime({2, 2}, {WordId("coffee")}, 21 * 3600.0), 0.0,
              1e-6);
}

TEST_F(CrossModalModelTest, UnknownCandidateWordsRankLast) {
  auto model = Model();
  // A candidate made only of unknown words must get the sentinel floor.
  const double score = model.ScoreText(9 * 3600.0, {2, 2}, {-1, 99999});
  EXPECT_LT(score, -1e8);
}

TEST_F(CrossModalModelTest, UnknownQueryWordsAreSkipped) {
  auto model = Model();
  // The query's unknown words are dropped; the known one still works.
  const double with_noise = model.ScoreLocation(
      9 * 3600.0, {WordId("coffee"), -1, 99999}, {2, 2});
  const double clean =
      model.ScoreLocation(9 * 3600.0, {WordId("coffee")}, {2, 2});
  EXPECT_NEAR(with_noise, clean, 1e-9);
}

TEST_F(CrossModalModelTest, TextVectorAveragesWords) {
  auto model = Model();
  std::vector<float> vec;
  ASSERT_TRUE(
      model.TextVector({WordId("coffee"), WordId("cinema")}, &vec));
  // Mean of (1,0) and (0,1).
  EXPECT_NEAR(vec[0], 0.5f, 1e-6f);
  EXPECT_NEAR(vec[1], 0.5f, 1e-6f);
}

TEST_F(CrossModalModelTest, TextVectorFalseWhenNothingKnown) {
  auto model = Model();
  std::vector<float> vec;
  EXPECT_FALSE(model.TextVector({-1, 424242}, &vec));
  EXPECT_FALSE(model.TextVector({}, &vec));
}

TEST_F(CrossModalModelTest, LocationSnapsToNearestHotspot) {
  auto model = Model();
  std::vector<float> near_a, at_a;
  ASSERT_TRUE(model.LocationVector({3, 3}, &near_a));   // closer to (2,2)
  ASSERT_TRUE(model.LocationVector({2, 2}, &at_a));
  EXPECT_EQ(near_a, at_a);
}

TEST_F(CrossModalModelTest, TimeSnapsCircularly) {
  auto model = Model();
  std::vector<float> late, record1;
  // 22:30 is circularly nearest to the 21:00 hotspot.
  ASSERT_TRUE(model.TimeVector(22.5 * 3600.0, &late));
  ASSERT_TRUE(model.TimeVector(21 * 3600.0, &record1));
  EXPECT_EQ(late, record1);
}

TEST_F(CrossModalModelTest, NameIsReported) {
  EXPECT_EQ(Model().name(), "test");
  EXPECT_TRUE(Model().supports_time());
}

}  // namespace
}  // namespace actor
