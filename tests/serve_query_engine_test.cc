// QueryEngine regression tests: results must be bit-identical to the
// pre-snapshot neighbor-search algorithm (per-row Cosine() + partial
// sort), including the hoisted-query-norm fused scoring path, and the
// engine must keep its snapshot alive on its own.

#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include <string>

#include "core/actor.h"
#include "embedding/embedding_matrix.h"
#include "eval/pipeline.h"
#include "serve/model_snapshot.h"
#include "util/vec_math.h"

namespace actor {
namespace {

class QueryEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PipelineOptions pipeline = UTGeoPipeline(0.1);
    pipeline.synthetic.num_records = 1500;
    pipeline.synthetic.seed = 23;
    auto prepared = PrepareDataset(pipeline, "qe-test");
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    data_ = new PreparedDataset(prepared.MoveValueOrDie());
    ActorOptions options;
    options.dim = 16;
    options.epochs = 3;
    options.samples_per_edge = 4;
    auto model = TrainActor(*data_->graphs, options);
    ASSERT_TRUE(model.ok());
    model_ = new ActorModel(model.MoveValueOrDie());
    snapshot_ = data_->Snapshot(model_->center);
  }
  static void TearDownTestSuite() {
    snapshot_.reset();
    delete model_;
    delete data_;
    model_ = nullptr;
    data_ = nullptr;
  }

  /// The pre-refactor scoring loop, verbatim: Cosine() per candidate row
  /// (query norm recomputed every time), then the same partial sort.
  static std::vector<Neighbor> Reference(const float* query,
                                         VertexType result_type, int k,
                                         VertexId exclude) {
    const std::size_t dim = static_cast<std::size_t>(model_->center.dim());
    std::vector<Neighbor> results;
    for (VertexId v : data_->graphs->activity.VerticesOfType(result_type)) {
      if (v == exclude) continue;
      Neighbor n;
      n.vertex = v;
      n.similarity = Cosine(query, model_->center.row(v), dim);
      results.push_back(std::move(n));
    }
    const std::size_t keep = std::min<std::size_t>(k, results.size());
    std::partial_sort(results.begin(), results.begin() + keep,
                      results.end(),
                      [](const Neighbor& a, const Neighbor& b) {
                        return a.similarity > b.similarity;
                      });
    results.resize(keep);
    for (auto& n : results) {
      n.name = data_->graphs->activity.vertex_name(n.vertex);
      n.type = data_->graphs->activity.vertex_type(n.vertex);
    }
    return results;
  }

  static PreparedDataset* data_;
  static ActorModel* model_;
  static std::shared_ptr<const ModelSnapshot> snapshot_;
};

PreparedDataset* QueryEngineTest::data_ = nullptr;
ActorModel* QueryEngineTest::model_ = nullptr;
std::shared_ptr<const ModelSnapshot> QueryEngineTest::snapshot_;

TEST_F(QueryEngineTest, BitIdenticalToPreRefactorCosineLoop) {
  QueryEngine engine(snapshot_);
  // Several query vectors x every result type x several k values, so the
  // comparison covers full-type scans and truncated top-k alike.
  for (VertexId q : {VertexId{0}, VertexId{3}, VertexId{17}}) {
    ASSERT_LT(q, model_->center.rows());
    const float* query = model_->center.row(q);
    for (VertexType type : {VertexType::kWord, VertexType::kLocation,
                            VertexType::kTime, VertexType::kUser}) {
      for (int k : {1, 5, 100000}) {
        auto got = engine.QueryByVector(query, type, k, q);
        ASSERT_TRUE(got.ok());
        const auto want = Reference(query, type, k, q);
        ASSERT_EQ(got->size(), want.size())
            << "q=" << q << " type=" << static_cast<int>(type) << " k=" << k;
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ((*got)[i].vertex, want[i].vertex) << "i=" << i;
          // Bit-identical scores: the fused DotAndNorm2 path preserves
          // Cosine()'s reduction order exactly.
          ASSERT_EQ((*got)[i].similarity, want[i].similarity) << "i=" << i;
          EXPECT_EQ((*got)[i].name, want[i].name);
          EXPECT_EQ((*got)[i].type, want[i].type);
        }
      }
    }
  }
}

TEST_F(QueryEngineTest, ZeroQueryVectorScoresZeroEverywhere) {
  QueryEngine engine(snapshot_);
  const std::vector<float> zeros(model_->center.dim(), 0.0f);
  auto result = engine.QueryByVector(zeros.data(), VertexType::kWord, 5);
  ASSERT_TRUE(result.ok());
  for (const auto& n : *result) {
    EXPECT_EQ(n.similarity, 0.0);
  }
}

TEST_F(QueryEngineTest, ModalityQueriesMatchVertexReference) {
  QueryEngine engine(snapshot_);
  // QueryByLocation == reference query from the snapped hotspot's vertex.
  const GeoPoint location{20, 20};
  const int32_t h = data_->hotspots->spatial.Assign(location);
  ASSERT_GE(h, 0);
  const VertexId lv = data_->graphs->spatial_vertices[h];
  auto by_loc = engine.QueryByLocation(location, VertexType::kWord, 6);
  ASSERT_TRUE(by_loc.ok());
  const auto want =
      Reference(model_->center.row(lv), VertexType::kWord, 6, lv);
  ASSERT_EQ(by_loc->size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ((*by_loc)[i].vertex, want[i].vertex);
    EXPECT_EQ((*by_loc)[i].similarity, want[i].similarity);
  }
}

TEST_F(QueryEngineTest, StatusMessagesMatchPreRefactorContract) {
  QueryEngine engine(snapshot_);
  const auto bad_k =
      engine.QueryByLocation({0, 0}, VertexType::kWord, 0).status();
  EXPECT_TRUE(bad_k.IsInvalidArgument());
  const auto unknown =
      engine.QueryByKeyword("definitely_not_a_word", VertexType::kWord, 3)
          .status();
  EXPECT_TRUE(unknown.IsNotFound());
  EXPECT_NE(unknown.ToString().find("keyword not in vocabulary"),
            std::string::npos);
}

// Ranking ties are part of the serving contract: equal similarities order
// by ascending unit id, making top-k results a deterministic function of
// the snapshot in both the sequential and the batched scoring path. Built
// on a hand-rolled snapshot so the ties are exact.
TEST(QueryEngineTieBreakTest, EqualScoresOrderByAscendingUnitId) {
  const int32_t dim = 4;
  const int32_t n = 8;
  EmbeddingMatrix center(n, dim);
  OnlineCatalog catalog;
  for (int32_t v = 0; v < n; ++v) {
    float* r = center.row(v);
    // Two exact tie groups: even ids all point along the query, odd ids
    // share a second direction with a lower cosine, so the full ranking
    // must be every even id ascending, then every odd id ascending.
    r[0] = 1.0f;
    r[1] = (v % 2 != 0) ? 1.0f : 0.0f;
    r[2] = 0.0f;
    r[3] = 0.0f;
    catalog.types.push_back(VertexType::kWord);
    catalog.names.push_back("w" + std::to_string(v));
  }
  const auto snap = ModelSnapshot::FromOnline(ChunkedMatrix::FullCopy(center),
                                              std::move(catalog), 1);
  QueryEngine engine(snap);
  const float query[dim] = {1.0f, 0.0f, 0.0f, 0.0f};

  // Full scan: both tie groups come back in ascending id order.
  auto full = engine.QueryByVector(query, VertexType::kWord, n);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->size(), static_cast<std::size_t>(n));
  const VertexId want_full[] = {0, 2, 4, 6, 1, 3, 5, 7};
  for (int32_t i = 0; i < n; ++i) {
    EXPECT_EQ((*full)[static_cast<std::size_t>(i)].vertex, want_full[i])
        << "rank " << i;
  }
  // The groups really are exact ties, not near-misses.
  EXPECT_EQ((*full)[0].similarity, (*full)[3].similarity);
  EXPECT_EQ((*full)[4].similarity, (*full)[7].similarity);

  // Truncation inside a tie group keeps the smallest ids.
  auto top3 = engine.QueryByVector(query, VertexType::kWord, 3);
  ASSERT_TRUE(top3.ok());
  ASSERT_EQ(top3->size(), 3u);
  EXPECT_EQ((*top3)[0].vertex, 0);
  EXPECT_EQ((*top3)[1].vertex, 2);
  EXPECT_EQ((*top3)[2].vertex, 4);

  // Excluding a tied unit shifts the group without reordering it.
  auto excl = engine.QueryByVector(query, VertexType::kWord, 3, 2);
  ASSERT_TRUE(excl.ok());
  ASSERT_EQ(excl->size(), 3u);
  EXPECT_EQ((*excl)[0].vertex, 0);
  EXPECT_EQ((*excl)[1].vertex, 4);
  EXPECT_EQ((*excl)[2].vertex, 6);

  // The batched path applies the identical total order.
  std::vector<BatchQuery> queries;
  queries.push_back(BatchQuery::Vector(query, VertexType::kWord, n));
  queries.push_back(BatchQuery::Vector(query, VertexType::kWord, 3, 2));
  const auto batch = engine.QueryBatch(queries);
  ASSERT_EQ(batch.size(), 2u);
  ASSERT_TRUE(batch[0].ok());
  ASSERT_EQ(batch[0]->size(), static_cast<std::size_t>(n));
  for (int32_t i = 0; i < n; ++i) {
    EXPECT_EQ((*batch[0])[static_cast<std::size_t>(i)].vertex, want_full[i]);
    EXPECT_EQ((*batch[0])[static_cast<std::size_t>(i)].similarity,
              (*full)[static_cast<std::size_t>(i)].similarity);
  }
  ASSERT_TRUE(batch[1].ok());
  ASSERT_EQ(batch[1]->size(), 3u);
  EXPECT_EQ((*batch[1])[0].vertex, 0);
  EXPECT_EQ((*batch[1])[1].vertex, 4);
  EXPECT_EQ((*batch[1])[2].vertex, 6);
}

TEST_F(QueryEngineTest, EngineKeepsSnapshotAlive) {
  auto local = data_->Snapshot(model_->center, /*version=*/9);
  QueryEngine engine(local);
  local.reset();  // the engine's shared_ptr is now the only owner
  EXPECT_EQ(engine.snapshot().version(), 9u);
  auto result = engine.QueryByHour(21.0, VertexType::kWord, 4);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 4u);
}

}  // namespace
}  // namespace actor
