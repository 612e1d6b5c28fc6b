#include "core/model_io.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "eval/pipeline.h"

namespace actor {
namespace {

class ModelIoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    PipelineOptions pipeline = UTGeoPipeline(0.05);
    pipeline.synthetic.num_records = 1200;
    auto prepared = PrepareDataset(pipeline, "model-io");
    ASSERT_TRUE(prepared.ok());
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

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/actor_model_io";
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  static PreparedDataset* data_;
  static ActorModel* model_;
};

PreparedDataset* ModelIoTest::data_ = nullptr;
ActorModel* ModelIoTest::model_ = nullptr;

TEST_F(ModelIoTest, SaveCreatesFiles) {
  ASSERT_TRUE(SaveActorModel(*model_, *data_->graphs, dir_).ok());
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/center.txt"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/context.txt"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/vertices.tsv"));
}

TEST_F(ModelIoTest, RoundTripPreservesEverything) {
  ASSERT_TRUE(SaveActorModel(*model_, *data_->graphs, dir_).ok());
  auto loaded = LoadedModel::Load(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_vertices(), model_->center.rows());
  ASSERT_EQ(loaded->center().dim(), model_->center.dim());
  for (VertexId v = 0; v < loaded->num_vertices(); ++v) {
    EXPECT_EQ(loaded->vertex_type(v), data_->graphs->activity.vertex_type(v));
    EXPECT_EQ(loaded->vertex_name(v), data_->graphs->activity.vertex_name(v));
    for (int d = 0; d < loaded->center().dim(); ++d) {
      ASSERT_NEAR(loaded->center().row(v)[d], model_->center.row(v)[d],
                  1e-6f);
    }
  }
}

TEST_F(ModelIoTest, LookupByName) {
  ASSERT_TRUE(SaveActorModel(*model_, *data_->graphs, dir_).ok());
  auto loaded = LoadedModel::Load(dir_);
  ASSERT_TRUE(loaded.ok());
  // Every word in the vocabulary resolves to its graph vertex.
  const std::string word = data_->full.vocab().word(0);
  const VertexId expected =
      data_->graphs->word_vertices[data_->full.vocab().Lookup(word)];
  EXPECT_EQ(loaded->Lookup(word), expected);
  EXPECT_EQ(loaded->Lookup("no_such_unit_name_xyz"), kInvalidVertex);
}

TEST_F(ModelIoTest, NearestOfTypeAfterReload) {
  ASSERT_TRUE(SaveActorModel(*model_, *data_->graphs, dir_).ok());
  auto loaded = LoadedModel::Load(dir_);
  ASSERT_TRUE(loaded.ok());
  const VertexId w = loaded->Lookup(data_->full.vocab().word(0));
  ASSERT_NE(w, kInvalidVertex);
  auto nearest = loaded->NearestOfType(w, VertexType::kWord, 5);
  ASSERT_TRUE(nearest.ok()) << nearest.status().ToString();
  ASSERT_EQ(nearest->size(), 5u);
  for (const Neighbor& n : *nearest) {
    EXPECT_EQ(loaded->vertex_type(n.vertex), VertexType::kWord);
    EXPECT_EQ(n.name, loaded->vertex_name(n.vertex));
    EXPECT_NE(n.vertex, w);
    EXPECT_GE(n.similarity, -1.0 - 1e-6);
    EXPECT_LE(n.similarity, 1.0 + 1e-6);
  }
  // Sorted descending.
  for (std::size_t i = 1; i < nearest->size(); ++i) {
    EXPECT_GE((*nearest)[i - 1].similarity, (*nearest)[i].similarity);
  }
}

TEST_F(ModelIoTest, NearestOfTypeRejectsUnknownVertex) {
  ASSERT_TRUE(SaveActorModel(*model_, *data_->graphs, dir_).ok());
  auto loaded = LoadedModel::Load(dir_);
  ASSERT_TRUE(loaded.ok());
  // kInvalidVertex is what Lookup() returns for an unknown name; it and
  // any id past the catalogue must be an error, never a row read.
  for (const VertexId bad : {kInvalidVertex, loaded->num_vertices(),
                             loaded->num_vertices() + 1000}) {
    auto nearest = loaded->NearestOfType(bad, VertexType::kWord, 5);
    EXPECT_TRUE(nearest.status().IsOutOfRange()) << "vertex " << bad;
  }
}

/// Writes a model directory by hand: `center` as both embedding files
/// plus the given vertices.tsv body.
void WriteModelDir(const std::string& dir, const EmbeddingMatrix& center,
                   const std::string& vertices_tsv) {
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(center.Save(dir + "/center.txt").ok());
  ASSERT_TRUE(center.Save(dir + "/context.txt").ok());
  std::ofstream(dir + "/vertices.tsv") << vertices_tsv;
}

TEST_F(ModelIoTest, NearestOfTypeOrdersTiesById) {
  // Twelve words with one shared vector: every neighbor of word 0 ties
  // exactly, so the order is decided by the tie-break alone.
  const int32_t n = 12;
  EmbeddingMatrix center(n, 4);
  std::string tsv;
  for (int32_t v = 0; v < n; ++v) {
    const float row[4] = {0.5f, -1.0f, 0.25f, 2.0f};
    center.SetRow(v, row);
    tsv += std::to_string(v) + "\tW\tw" + std::to_string(v) + "\n";
  }
  WriteModelDir(dir_, center, tsv);
  auto loaded = LoadedModel::Load(dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const int k : {5, n - 1}) {
    auto nearest = loaded->NearestOfType(0, VertexType::kWord, k);
    ASSERT_TRUE(nearest.ok());
    ASSERT_EQ(nearest->size(), static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      EXPECT_EQ((*nearest)[static_cast<std::size_t>(i)].vertex, i + 1)
          << "k=" << k << " rank " << i;
    }
  }
}

TEST_F(ModelIoTest, LoadRejectsDuplicatedVertexId) {
  // Row count matches the matrix, but id 1 appears twice and id 2 never:
  // loading would leave vertex 2 with an empty name and a default type.
  EmbeddingMatrix center(3, 4);
  WriteModelDir(dir_, center, "0\tW\ta\n1\tW\tb\n1\tL\tc\n");
  auto loaded = LoadedModel::Load(dir_);
  EXPECT_TRUE(loaded.status().IsInvalidArgument())
      << loaded.status().ToString();
}

TEST_F(ModelIoTest, LoadMissingDirectoryFails) {
  EXPECT_FALSE(LoadedModel::Load("/no/such/dir").ok());
}

TEST_F(ModelIoTest, MismatchedModelRejected) {
  ActorModel wrong;
  wrong.center = EmbeddingMatrix(3, 4);
  wrong.context = EmbeddingMatrix(3, 4);
  EXPECT_TRUE(SaveActorModel(wrong, *data_->graphs, dir_)
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace actor
