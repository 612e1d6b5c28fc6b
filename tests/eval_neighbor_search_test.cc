#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include "core/actor.h"
#include "eval/pipeline.h"

namespace actor {
namespace {

class NeighborSearchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PipelineOptions pipeline = UTGeoPipeline(0.1);
    pipeline.synthetic.num_records = 2000;
    pipeline.synthetic.seed = 42;
    auto prepared = PrepareDataset(pipeline, "ns-test");
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    data_ = new PreparedDataset(prepared.MoveValueOrDie());
    ActorOptions options;
    options.dim = 16;
    options.epochs = 4;
    options.samples_per_edge = 6;
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

  QueryEngine MakeSearcher() {
    return QueryEngine(data_->Snapshot(model_->center));
  }

  static PreparedDataset* data_;
  static ActorModel* model_;
};

PreparedDataset* NeighborSearchTest::data_ = nullptr;
ActorModel* NeighborSearchTest::model_ = nullptr;

TEST_F(NeighborSearchTest, LocationQueryReturnsWords) {
  QueryEngine searcher = MakeSearcher();
  auto result = searcher.QueryByLocation({20, 20}, VertexType::kWord, 5);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 5u);
  for (const auto& n : *result) {
    EXPECT_EQ(n.type, VertexType::kWord);
    EXPECT_FALSE(n.name.empty());
  }
}

TEST_F(NeighborSearchTest, ResultsSortedDescending) {
  QueryEngine searcher = MakeSearcher();
  auto result = searcher.QueryByLocation({10, 10}, VertexType::kWord, 10);
  ASSERT_TRUE(result.ok());
  for (std::size_t i = 1; i < result->size(); ++i) {
    EXPECT_GE((*result)[i - 1].similarity, (*result)[i].similarity);
  }
}

TEST_F(NeighborSearchTest, HourQueryReturnsRequestedType) {
  QueryEngine searcher = MakeSearcher();
  auto words = searcher.QueryByHour(21.0, VertexType::kWord, 6);
  ASSERT_TRUE(words.ok());
  EXPECT_EQ(words->size(), 6u);
  auto locations = searcher.QueryByHour(21.0, VertexType::kLocation, 4);
  ASSERT_TRUE(locations.ok());
  for (const auto& n : *locations) {
    EXPECT_EQ(n.type, VertexType::kLocation);
  }
}

TEST_F(NeighborSearchTest, KeywordQueryExcludesSelf) {
  QueryEngine searcher = MakeSearcher();
  // Pick a word known to be in the vocabulary.
  const std::string keyword = data_->full.vocab().word(0);
  auto result = searcher.QueryByKeyword(keyword, VertexType::kWord, 10);
  ASSERT_TRUE(result.ok());
  for (const auto& n : *result) {
    EXPECT_NE(n.name, keyword);
  }
}

TEST_F(NeighborSearchTest, UnknownKeywordIsNotFound) {
  QueryEngine searcher = MakeSearcher();
  EXPECT_TRUE(searcher
                  .QueryByKeyword("definitely_not_a_word", VertexType::kWord,
                                  5)
                  .status()
                  .IsNotFound());
}

TEST_F(NeighborSearchTest, BadKRejected) {
  QueryEngine searcher = MakeSearcher();
  EXPECT_TRUE(searcher.QueryByLocation({0, 0}, VertexType::kWord, 0)
                  .status()
                  .IsInvalidArgument());
}

TEST_F(NeighborSearchTest, KLargerThanTypeCount) {
  QueryEngine searcher = MakeSearcher();
  const std::size_t n_time =
      data_->graphs->activity.VerticesOfType(VertexType::kTime).size();
  auto result =
      searcher.QueryByLocation({5, 5}, VertexType::kTime, 1000);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), n_time);
}

TEST_F(NeighborSearchTest, SimilaritiesWithinBounds) {
  QueryEngine searcher = MakeSearcher();
  auto result = searcher.QueryByHour(9.0, VertexType::kWord, 20);
  ASSERT_TRUE(result.ok());
  for (const auto& n : *result) {
    EXPECT_GE(n.similarity, -1.0 - 1e-6);
    EXPECT_LE(n.similarity, 1.0 + 1e-6);
  }
}

TEST_F(NeighborSearchTest, VenueKeywordNearItsVenueLocation) {
  // The generator plants venue name keywords; querying a busy venue's
  // location should surface venue/topic words with positive similarity.
  QueryEngine searcher = MakeSearcher();
  // Most frequent venue among records.
  std::vector<int> counts(data_->dataset.truth.venue_locations.size(), 0);
  for (int v : data_->dataset.truth.record_venues) ++counts[v];
  const int busiest = static_cast<int>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
  const GeoPoint venue = data_->dataset.truth.venue_locations[busiest];
  auto result = searcher.QueryByLocation(venue, VertexType::kWord, 10);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->empty());
  EXPECT_GT((*result)[0].similarity, 0.3);
}

TEST_F(NeighborSearchTest, QueryByVectorMatchesVertexQuery) {
  QueryEngine searcher = MakeSearcher();
  // Query by a word's own vector: top hit should be similar to keyword
  // query results for that word.
  const std::string keyword = data_->full.vocab().word(1);
  const int32_t w = data_->full.vocab().Lookup(keyword);
  const VertexId v = data_->graphs->word_vertices[w];
  ASSERT_NE(v, kInvalidVertex);
  auto by_vec = searcher.QueryByVector(model_->center.row(v),
                                       VertexType::kWord, 5, v);
  auto by_kw = searcher.QueryByKeyword(keyword, VertexType::kWord, 5);
  ASSERT_TRUE(by_vec.ok() && by_kw.ok());
  ASSERT_EQ(by_vec->size(), by_kw->size());
  for (std::size_t i = 0; i < by_vec->size(); ++i) {
    EXPECT_EQ((*by_vec)[i].vertex, (*by_kw)[i].vertex);
  }
}

}  // namespace
}  // namespace actor
