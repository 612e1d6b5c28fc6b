// The streaming trainer that replaced the training shards: one set of rows,
// one dirty set, one publish path. The file keeps the name of the sharded
// suite it succeeds; the pinned trainer digest lives in
// core_online_actor_test (TrainerMatchesPinnedDigest).

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "core/online_actor.h"
#include "data/synthetic.h"
#include "serve/model_snapshot.h"

namespace actor {
namespace {

std::vector<std::vector<TokenizedRecord>> MakeBatches(int records,
                                                      int batches,
                                                      uint64_t seed = 5) {
  SyntheticConfig config;
  config.seed = seed;
  config.num_records = records;
  config.num_users = 80;
  config.num_communities = 4;
  config.num_topics = 6;
  config.num_venues = 16;
  config.keywords_per_topic = 20;
  config.background_vocab = 40;
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

OnlineActorOptions FastOptions() {
  OnlineActorOptions o;
  o.dim = 16;
  o.samples_per_edge_per_batch = 2.0;
  return o;
}

// The delta publish copies only dirty chunks of center(). It must produce
// exactly what a full copy and the live model hold — the chunk-COW
// sharing is an optimization, never a semantic change.
TEST(ShardOnlineActorTest, PublishDeltaMatchesFullAndLiveModel) {
  auto delta_model = OnlineActor::Create(FastOptions());
  ASSERT_TRUE(delta_model.ok());

  const auto batches = MakeBatches(900, 3);
  std::shared_ptr<const ModelSnapshot> delta_snap, full_snap;
  for (const auto& batch : batches) {
    ASSERT_TRUE(delta_model->Ingest(batch).ok());
    // Publishing every batch exercises the delta path against a fresh
    // previous snapshot (grown unit set and steady-state both covered).
    delta_snap = delta_model->PublishSnapshot();
    ASSERT_NE(delta_snap, nullptr);
    full_snap = ModelSnapshot::FromOnline(
        ChunkedMatrix::FullCopy(delta_model->center()),
        delta_model->catalog(), delta_snap->version());
    const EmbeddingMatrix& live = delta_model->center();
    const ChunkedMatrix& a = delta_snap->center();
    const ChunkedMatrix& b = full_snap->center();
    ASSERT_EQ(a.rows(), live.rows());
    ASSERT_EQ(b.rows(), live.rows());
    const std::size_t bytes =
        sizeof(float) * static_cast<std::size_t>(live.dim());
    for (int32_t r = 0; r < live.rows(); ++r) {
      ASSERT_EQ(std::memcmp(a.row(r), live.row(r), bytes), 0)
          << "delta row " << r << " differs";
      ASSERT_EQ(std::memcmp(b.row(r), live.row(r), bytes), 0)
          << "full row " << r << " differs";
      ASSERT_EQ(delta_snap->vertex_type(r), delta_model->unit_type(r));
    }
  }
  // The training outcome stays finite and valid in both row sets.
  EXPECT_TRUE(delta_model->center().DebugValidate());
  EXPECT_TRUE(delta_model->context().DebugValidate());
  // Unchanged model => publish is a no-op returning the same snapshot.
  EXPECT_EQ(delta_model->PublishSnapshot(), delta_snap);
}

}  // namespace
}  // namespace actor
