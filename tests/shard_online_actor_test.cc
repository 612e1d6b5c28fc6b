#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/online_actor.h"
#include "data/synthetic.h"
#include "serve/query_engine.h"
#include "util/thread_pool.h"
#include "util/vec_math.h"

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

void ExpectBitIdentical(const EmbeddingMatrix& a, const EmbeddingMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.dim(), b.dim());
  for (int32_t r = 0; r < a.rows(); ++r) {
    ASSERT_EQ(std::memcmp(a.row(r), b.row(r),
                          sizeof(float) * static_cast<std::size_t>(a.dim())),
              0)
        << "row " << r << " differs";
  }
}

/// FNV-1a over the value bits of every row (padding excluded).
uint64_t Digest(uint64_t h, const EmbeddingMatrix& m) {
  for (int32_t r = 0; r < m.rows(); ++r) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(m.row(r));
    const std::size_t n = sizeof(float) * static_cast<std::size_t>(m.dim());
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  }
  return h;
}

uint64_t OneShardDigest(VecBackend backend) {
  SetVecBackend(backend);
  auto model = OnlineActor::Create(FastOptions());
  EXPECT_TRUE(model.ok());
  for (const auto& batch : MakeBatches(900, 3)) {
    EXPECT_TRUE(model->Ingest(batch).ok());
  }
  EXPECT_EQ(model->num_shards(), 1);
  EXPECT_EQ(model->num_units(), 279);
  uint64_t h = 14695981039346656037ull;
  h = Digest(h, model->center_shard(0));
  return Digest(h, model->context_shard(0));
}

// The trainer's bits, pinned: center+context after three FastOptions
// batches at the default single shard, per kernel backend. The values were
// recorded from the flat sample-split trainer this pipeline replaced
// (bit-identical to its one-shard ownership epoch), so any change to draw
// order, routing, dirty tracking or kernel arithmetic shows up here.
TEST(ShardOnlineActorTest, OneShardTrainerMatchesPinnedDigest) {
  const VecBackend original = ActiveVecBackend();
  EXPECT_EQ(OneShardDigest(VecBackend::kScalar), 0xcc08ea6507889f1aull);
  if (Avx2Available()) {
    EXPECT_EQ(OneShardDigest(VecBackend::kAvx2), 0xaa4b0d34db2bde1eull);
  }
  SetVecBackend(original);
}

// Sharded training writes only shard-owned state (remote context rows go
// to private tile copies), so unlike legacy HOGWILD the result cannot
// depend on scheduling: one worker or many, same bits.
TEST(ShardOnlineActorTest, ShardedDeterministicAcrossThreadCounts) {
  OnlineActorOptions seq_opts = FastOptions();
  seq_opts.num_shards = 4;
  OnlineActorOptions par_opts = seq_opts;
  par_opts.num_threads = 4;
  auto seq = OnlineActor::Create(seq_opts);
  auto par = OnlineActor::Create(par_opts);
  ASSERT_TRUE(seq.ok());
  ASSERT_TRUE(par.ok());

  const auto batches = MakeBatches(900, 3);
  for (const auto& batch : batches) {
    ASSERT_TRUE(seq->Ingest(batch).ok());
    ASSERT_TRUE(par->Ingest(batch).ok());
  }
  ExpectBitIdentical(seq->GatherCenter(), par->GatherCenter());
}

TEST(ShardOnlineActorTest, CrossShardEdgesResolveThroughRemoteTileCache) {
  OnlineActorOptions opts = FastOptions();
  opts.num_shards = 2;
  auto model = OnlineActor::Create(opts);
  ASSERT_TRUE(model.ok());
  const auto batches = MakeBatches(600, 2);
  for (const auto& batch : batches) ASSERT_TRUE(model->Ingest(batch).ok());

  // Hash partitioning over a connected co-occurrence graph guarantees
  // cross-shard edges, and every one of them must have pulled its remote
  // endpoint's context row into the owner's tile cache at the barrier.
  ASSERT_EQ(model->num_shards(), 2);
  std::size_t tile_rows = 0;
  for (int s = 0; s < model->num_shards(); ++s) {
    tile_rows += model->remote_tile_rows(s);
  }
  EXPECT_GT(tile_rows, 0u);
  // The training outcome stays finite and valid across both shards.
  for (int s = 0; s < model->num_shards(); ++s) {
    EXPECT_TRUE(model->center_shard(s).DebugValidate());
  }
}

// At more than one shard the delta publish gathers only dirty chunks from
// their owning shards. It must produce exactly what a full publish and a
// plain gather of the live model produce — the chunk-COW sharing is an
// optimization, never a semantic change.
TEST(ShardOnlineActorTest, ShardedPublishDeltaMatchesFull) {
  OnlineActorOptions delta_opts = FastOptions();
  delta_opts.num_shards = 2;
  delta_opts.delta_publish = true;
  OnlineActorOptions full_opts = delta_opts;
  full_opts.delta_publish = false;
  auto delta_model = OnlineActor::Create(delta_opts);
  auto full_model = OnlineActor::Create(full_opts);
  ASSERT_TRUE(delta_model.ok());
  ASSERT_TRUE(full_model.ok());

  const auto batches = MakeBatches(900, 3);
  std::shared_ptr<const ModelSnapshot> delta_snap, full_snap;
  for (const auto& batch : batches) {
    ASSERT_TRUE(delta_model->Ingest(batch).ok());
    ASSERT_TRUE(full_model->Ingest(batch).ok());
    // Publishing every batch exercises the delta path against a fresh
    // previous snapshot (grown unit set and steady-state both covered).
    delta_snap = delta_model->PublishSnapshot();
    full_snap = full_model->PublishSnapshot();
    ASSERT_NE(delta_snap, nullptr);
    ASSERT_NE(full_snap, nullptr);
    ASSERT_EQ(delta_snap->version(), full_snap->version());
    const EmbeddingMatrix gathered = delta_model->GatherCenter();
    const ChunkedMatrix& a = delta_snap->center();
    const ChunkedMatrix& b = full_snap->center();
    ASSERT_EQ(a.rows(), gathered.rows());
    ASSERT_EQ(b.rows(), gathered.rows());
    const std::size_t bytes =
        sizeof(float) * static_cast<std::size_t>(gathered.dim());
    for (int32_t r = 0; r < gathered.rows(); ++r) {
      ASSERT_EQ(std::memcmp(a.row(r), gathered.row(r), bytes), 0)
          << "delta row " << r << " differs";
      ASSERT_EQ(std::memcmp(b.row(r), gathered.row(r), bytes), 0)
          << "full row " << r << " differs";
      ASSERT_EQ(delta_snap->vertex_type(r), delta_model->unit_type(r));
    }
  }
  // Unchanged model => publish is a no-op returning the same snapshot.
  EXPECT_EQ(delta_model->PublishSnapshot(), delta_snap);
}

}  // namespace
}  // namespace actor
