#include "core/online_actor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "data/synthetic.h"
#include "eval/mrr.h"
#include "util/rng.h"
#include "util/vec_math.h"

namespace actor {
namespace {

/// Tokenizes a synthetic dataset into batches of equal size.
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

TEST(OnlineActorTest, CreateValidatesOptions) {
  OnlineActorOptions o = FastOptions();
  o.dim = 0;
  EXPECT_TRUE(OnlineActor::Create(o).status().IsInvalidArgument());
  o = FastOptions();
  o.decay_per_batch = 0.0;
  EXPECT_TRUE(OnlineActor::Create(o).status().IsInvalidArgument());
  o = FastOptions();
  o.decay_per_batch = 1.5;
  EXPECT_TRUE(OnlineActor::Create(o).status().IsInvalidArgument());
  o = FastOptions();
  o.samples_per_edge_per_batch = 0.0;
  EXPECT_TRUE(OnlineActor::Create(o).status().IsInvalidArgument());
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

uint64_t TrainerDigest(VecBackend backend) {
  SetVecBackend(backend);
  auto model = OnlineActor::Create(FastOptions());
  EXPECT_TRUE(model.ok());
  for (const auto& batch : MakeBatches(900, 3)) {
    EXPECT_TRUE(model->Ingest(batch).ok());
  }
  EXPECT_EQ(model->num_units(), 279);
  uint64_t h = 14695981039346656037ull;
  h = Digest(h, model->center());
  return Digest(h, model->context());
}

// The trainer's bits, pinned: center+context after three FastOptions
// batches, per kernel backend, so any change to draw order, dirty tracking
// or kernel arithmetic shows up here. Re-pinned when the per-step update
// (each step drawing its own negatives, one per-step kernel call) became the shared-negative block step (one typed draw of negatives per
// chunk of at most kSharedNegativeBlock same-type steps, one
// SharedNegativeBlock call), which changes the arithmetic on purpose:
// scalar 0xcc08ea6507889f1a -> 0x4a89253d60d8872f,
// AVX2   0xaa4b0d34db2bde1e -> 0xfc64d46477d91c12.
// Re-pinned again when OnlineEdgeStore's degrees became dense arrays and
// RefreshSamplers began listing each noise table's candidates in ascending
// vertex id instead of std::unordered_map iteration order. The degree
// values are unchanged; only the candidate order inside each alias table
// moves, and with it which vertex a given negative draw returns (the old
// store with its candidates sorted by id gives the new digests):
// scalar 0x4a89253d60d8872f -> 0x0c29e5031237e5d2,
// AVX2   0xfc64d46477d91c12 -> 0x580c0ccee1966d5a.
TEST(OnlineActorTest, TrainerMatchesPinnedDigest) {
  const VecBackend original = ActiveVecBackend();
  EXPECT_EQ(TrainerDigest(VecBackend::kScalar), 0x0c29e5031237e5d2ull);
  // The relaxed kernels are the scalar loops through relaxed accessors.
  EXPECT_EQ(TrainerDigest(VecBackend::kRelaxed), 0x0c29e5031237e5d2ull);
#if defined(ACTOR_TSAN)
  // ThreadSanitizer builds install only the relaxed kernels, so an AVX2
  // request trains on them and reproduces the scalar bits.
  EXPECT_EQ(TrainerDigest(VecBackend::kAvx2), 0x0c29e5031237e5d2ull);
  EXPECT_EQ(ActiveVecBackend(), VecBackend::kRelaxed);
#else
  if (Avx2Available()) {
    EXPECT_EQ(TrainerDigest(VecBackend::kAvx2), 0x580c0ccee1966d5aull);
  }
#endif
  SetVecBackend(original);
}

// A non-finite timestamp has no hour of day and a non-finite location is
// far from every hotspot, so the whole batch is refused before it touches
// the model: no decay, no new unit, no batch counted, no new snapshot.
TEST(OnlineActorTest, IngestRejectsNonFiniteRecordsAndLeavesModelUntouched) {
  auto model = OnlineActor::Create(FastOptions());
  ASSERT_TRUE(model.ok());
  const auto batches = MakeBatches(600, 2);
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  const auto snap = model->PublishSnapshot();
  ASSERT_NE(snap, nullptr);
  const int64_t batches_before = model->batches_ingested();
  const int32_t units_before = model->num_units();
  const std::size_t edges_before = model->num_live_edges();
  const uint64_t digest_before =
      Digest(Digest(14695981039346656037ull, model->center()),
             model->context());

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (int field = 0; field < 3; ++field) {
    for (const double bad : {nan, inf, -inf}) {
      std::vector<TokenizedRecord> batch = batches[1];
      ASSERT_GT(batch.size(), 2u);
      TokenizedRecord& rec = batch[batch.size() / 2];
      if (field == 0) rec.timestamp = bad;
      if (field == 1) rec.location.x = bad;
      if (field == 2) rec.location.y = bad;
      EXPECT_TRUE(model->Ingest(batch).IsInvalidArgument())
          << "field " << field << " value " << bad;
    }
  }
  EXPECT_EQ(model->batches_ingested(), batches_before);
  EXPECT_EQ(model->num_units(), units_before);
  EXPECT_EQ(model->num_live_edges(), edges_before);
  EXPECT_EQ(Digest(Digest(14695981039346656037ull, model->center()),
                   model->context()),
            digest_before);
  // Nothing changed, so publishing again is the no-op publish.
  EXPECT_EQ(model->PublishSnapshot(), snap);
  // The stream goes on: the clean batch is accepted afterwards.
  ASSERT_TRUE(model->Ingest(batches[1]).ok());
  EXPECT_EQ(model->batches_ingested(), batches_before + 1);
}

TEST(OnlineActorTest, ScoreRecordAgainstUnitRejectsOutOfRangeCandidates) {
  auto model = OnlineActor::Create(FastOptions());
  ASSERT_TRUE(model.ok());
  const auto batches = MakeBatches(600, 2);
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  const TokenizedRecord& rec = batches[1].front();
  const int32_t n = model->num_units();
  ASSERT_GT(n, 1);
  for (const VertexId bad : {kInvalidVertex, VertexId{-7}, n, n + 1000}) {
    EXPECT_EQ(model->ScoreRecordAgainstUnit(rec, bad), -1e9)
        << "candidate " << bad;
  }
  // In-range candidates still score as cosines.
  const double score = model->ScoreRecordAgainstUnit(rec, n - 1);
  EXPECT_GE(score, -1.0 - 1e-6);
  EXPECT_LE(score, 1.0 + 1e-6);
}

TEST(OnlineActorTest, EmptyBatchIsAPureDecayTick) {
  // Sparse-stream mode: an empty batch means a time slice passed with no
  // observations. It must succeed, count as a batch, decay the live
  // edges, and leave the model ready for the next real batch.
  auto model = OnlineActor::Create(FastOptions());
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(model->Ingest({}).ok());  // decay tick on an empty model
  EXPECT_EQ(model->batches_ingested(), 1);

  const auto batches = MakeBatches(600, 3);
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  const std::size_t live_before = model->num_live_edges();
  ASSERT_GT(live_before, 0u);
  // Enough consecutive decay ticks push every weight below the drop
  // threshold; the edge set must shrink, proving DecayEdges really ran.
  for (int i = 0; i < 64 && model->num_live_edges() > 0; ++i) {
    ASSERT_TRUE(model->Ingest({}).ok());
  }
  EXPECT_LT(model->num_live_edges(), live_before);
  EXPECT_GE(model->batches_ingested(), 3);

  // The stream recovers: a real batch after the quiet period trains fine.
  ASSERT_TRUE(model->Ingest(batches[1]).ok());
  EXPECT_GT(model->num_live_edges(), 0u);
}

TEST(OnlineActorTest, UnitsGrowWithData) {
  auto model = OnlineActor::Create(FastOptions());
  ASSERT_TRUE(model.ok());
  const auto batches = MakeBatches(1200, 3);
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  const int32_t units_after_one = model->num_units();
  EXPECT_GT(units_after_one, 0);
  EXPECT_GT(model->num_spatial_hotspots(), 0u);
  EXPECT_GT(model->num_temporal_hotspots(), 0u);
  EXPECT_GT(model->num_live_edges(), 0u);
  ASSERT_TRUE(model->Ingest(batches[1]).ok());
  EXPECT_GE(model->num_units(), units_after_one);
  EXPECT_EQ(model->batches_ingested(), 2);
}

TEST(OnlineActorTest, SpatialHotspotSpawnRespectsThreshold) {
  OnlineActorOptions o = FastOptions();
  o.new_spatial_hotspot_km = 5.0;
  auto model = OnlineActor::Create(o);
  ASSERT_TRUE(model.ok());
  TokenizedRecord near_a;
  near_a.timestamp = 9 * 3600.0;
  near_a.location = {10, 10};
  near_a.word_ids = {0};
  TokenizedRecord near_b = near_a;
  near_b.location = {11, 11};  // within 5 km of the first
  TokenizedRecord far = near_a;
  far.location = {30, 30};
  ASSERT_TRUE(model->Ingest({near_a, near_b, far}).ok());
  EXPECT_EQ(model->num_spatial_hotspots(), 2u);
  EXPECT_EQ(model->SpatialUnit({10.5, 10.5}),
            model->SpatialUnit({10.0, 10.0}));
  EXPECT_NE(model->SpatialUnit({30, 30}), model->SpatialUnit({10, 10}));
}

TEST(OnlineActorTest, TemporalHotspotWrapsMidnight) {
  OnlineActorOptions o = FastOptions();
  o.new_temporal_hotspot_hours = 1.0;
  auto model = OnlineActor::Create(o);
  ASSERT_TRUE(model.ok());
  TokenizedRecord late;
  late.timestamp = 23.8 * 3600.0;
  late.location = {1, 1};
  late.word_ids = {0};
  TokenizedRecord early = late;
  early.timestamp = 24.2 * 3600.0;  // 00:12 next day, circularly close
  ASSERT_TRUE(model->Ingest({late, early}).ok());
  EXPECT_EQ(model->num_temporal_hotspots(), 1u);
}

TEST(OnlineActorTest, WordsAndUsersDeduplicated) {
  auto model = OnlineActor::Create(FastOptions());
  ASSERT_TRUE(model.ok());
  TokenizedRecord r1;
  r1.user_id = 7;
  r1.timestamp = 3600.0;
  r1.location = {1, 1};
  r1.word_ids = {3, 4};
  TokenizedRecord r2 = r1;  // same user, same words
  ASSERT_TRUE(model->Ingest({r1, r2}).ok());
  // 1 time + 1 location + 2 words + 1 user.
  EXPECT_EQ(model->num_units(), 5);
  EXPECT_NE(model->WordUnit(3), kInvalidVertex);
  EXPECT_EQ(model->WordUnit(99), kInvalidVertex);
}

TEST(OnlineActorTest, DecayDropsStaleEdges) {
  OnlineActorOptions o = FastOptions();
  o.decay_per_batch = 0.3;
  o.min_edge_weight = 0.2;
  auto model = OnlineActor::Create(o);
  ASSERT_TRUE(model.ok());
  TokenizedRecord stale;
  stale.user_id = 1;
  stale.timestamp = 3600.0;
  stale.location = {1, 1};
  stale.word_ids = {0, 1};
  ASSERT_TRUE(model->Ingest({stale}).ok());
  const std::size_t live_before = model->num_live_edges();
  ASSERT_GT(live_before, 0u);
  // Ingest unrelated batches; the original co-occurrences decay away.
  TokenizedRecord fresh;
  fresh.user_id = 2;
  fresh.timestamp = 12 * 3600.0;
  fresh.location = {30, 30};
  fresh.word_ids = {5, 6};
  ASSERT_TRUE(model->Ingest({fresh}).ok());
  ASSERT_TRUE(model->Ingest({fresh}).ok());
  ASSERT_TRUE(model->Ingest({fresh}).ok());
  // Stale pair 0-1 must be gone: only the fresh record's edges survive.
  EXPECT_LT(model->num_live_edges(), live_before + 14);
  // Units are never removed.
  EXPECT_NE(model->WordUnit(0), kInvalidVertex);
}

TEST(OnlineActorTest, NoDecayKeepsEdges) {
  OnlineActorOptions o = FastOptions();
  o.decay_per_batch = 1.0;
  auto model = OnlineActor::Create(o);
  ASSERT_TRUE(model.ok());
  const auto batches = MakeBatches(600, 2, 9);
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  const std::size_t live = model->num_live_edges();
  ASSERT_TRUE(model->Ingest(batches[1]).ok());
  EXPECT_GE(model->num_live_edges(), live);
}

TEST(OnlineActorTest, LearnsCrossModalStructure) {
  OnlineActorOptions options = FastOptions();
  options.samples_per_edge_per_batch = 6.0;
  auto model = OnlineActor::Create(options);
  ASSERT_TRUE(model.ok());
  const auto batches = MakeBatches(3000, 3, 13);
  ASSERT_TRUE(model->Ingest(batches[0]).ok());
  ASSERT_TRUE(model->Ingest(batches[1]).ok());

  // Prequential check on the held-out third batch: rank the true
  // location unit against 10 *distinct* noise locations (the test world
  // has few venues, so noise records sharing the truth's hotspot are
  // skipped — a tie against oneself is not an error signal).
  Rng rng(3);
  std::vector<int> ranks;
  const auto& test = batches[2];
  for (std::size_t q = 0; q < std::min<std::size_t>(test.size(), 300); ++q) {
    const VertexId truth_unit = model->SpatialUnit(test[q].location);
    if (truth_unit == kInvalidVertex) continue;
    const double truth = model->ScoreRecordAgainstUnit(test[q], truth_unit);
    std::vector<double> noise;
    int attempts = 0;
    while (static_cast<int>(noise.size()) < 10 && attempts++ < 200) {
      const auto& other = test[rng.Uniform(test.size())];
      const VertexId unit = model->SpatialUnit(other.location);
      if (unit == truth_unit || unit == kInvalidVertex) continue;
      noise.push_back(model->ScoreRecordAgainstUnit(test[q], unit));
    }
    if (noise.size() < 10) continue;
    ranks.push_back(RankOfTruth(truth, noise));
  }
  ASSERT_GT(ranks.size(), 100u);
  // Random guessing gives ~0.27; the online model must do much better.
  EXPECT_GT(MeanReciprocalRank(ranks), 0.45);
}

TEST(OnlineActorTest, DeterministicForSeed) {
  const auto batches = MakeBatches(800, 1, 21);
  auto a = OnlineActor::Create(FastOptions());
  auto b = OnlineActor::Create(FastOptions());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(a->Ingest(batches[0]).ok());
  ASSERT_TRUE(b->Ingest(batches[0]).ok());
  ASSERT_EQ(a->num_units(), b->num_units());
  for (VertexId v = 0; v < a->num_units(); ++v) {
    for (int d = 0; d < 16; ++d) {
      ASSERT_FLOAT_EQ(a->center().row(v)[d], b->center().row(v)[d]);
    }
  }
}

}  // namespace
}  // namespace actor
