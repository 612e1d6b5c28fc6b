#include "embedding/sgd.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "util/thread_pool.h"
#include "util/vec_math.h"

namespace actor {
namespace {

/// L-W graph with two "topics": (L0; w0, w1, w2) and (L1; w3, w4, w5),
/// each topic a word triangle plus its location. Words of the same topic
/// share two contexts (the other words) plus the location, so
/// second-order proximity separates the topics.
Heterograph TwoTopicGraph() {
  Heterograph g;
  const VertexId l0 = g.AddVertex(VertexType::kLocation, "L0");
  const VertexId l1 = g.AddVertex(VertexType::kLocation, "L1");
  for (int i = 0; i < 6; ++i) {
    g.AddVertex(VertexType::kWord, "w" + std::to_string(i));
  }
  auto topic = [&](VertexId loc, VertexId w_base) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(g.AccumulateEdge(loc, w_base + i, 10).ok());
      for (int j = i + 1; j < 3; ++j) {
        EXPECT_TRUE(g.AccumulateEdge(w_base + i, w_base + j, 10).ok());
      }
    }
  };
  topic(l0, 2);
  topic(l1, 5);
  EXPECT_TRUE(g.Finalize().ok());
  return g;
}

TEST(NegativeSamplingUpdateTest, PositivePairMovesCloser) {
  EmbeddingMatrix context(2, 4);
  float center[] = {0.1f, -0.2f, 0.3f, 0.05f};
  context.row(0)[0] = 0.2f;
  context.row(0)[1] = 0.1f;
  const SigmoidTable sigmoid;
  Rng rng(1);
  const float before = Dot(center, context.row(0), 4);
  float grad[4] = {0, 0, 0, 0};
  NegativeSamplingUpdate(
      center, /*positive=*/0, /*negatives=*/0, /*lr=*/0.5f, &context, sigmoid,
      rng, [](Rng&) { return kInvalidVertex; }, grad);
  Add(grad, center, 4);
  const float after = Dot(center, context.row(0), 4);
  EXPECT_GT(after, before);
}

TEST(NegativeSamplingUpdateTest, NegativeMovesAway) {
  EmbeddingMatrix context(2, 4);
  float center[] = {0.3f, 0.3f, 0.0f, 0.0f};
  // Positive context row 0, negative row 1 aligned with center.
  context.row(1)[0] = 0.4f;
  context.row(1)[1] = 0.4f;
  const SigmoidTable sigmoid;
  Rng rng(2);
  const float neg_before = Dot(center, context.row(1), 4);
  float grad[4] = {0, 0, 0, 0};
  NegativeSamplingUpdate(
      center, 0, /*negatives=*/1, 0.5f, &context, sigmoid, rng,
      [](Rng&) -> VertexId { return 1; }, grad);
  Add(grad, center, 4);
  const float neg_after = Dot(center, context.row(1), 4);
  EXPECT_LT(neg_after, neg_before);
}

TEST(NegativeSamplingUpdateTest, SkipsInvalidAndSelfNegatives) {
  EmbeddingMatrix context(1, 2);
  context.row(0)[0] = 0.5f;
  float center[] = {0.5f, 0.0f};
  const SigmoidTable sigmoid;
  Rng rng(3);
  float grad[2] = {0, 0};
  // Negatives always return the positive vertex -> must be skipped, so the
  // update equals a positives-only update.
  const float ctx_before = context.row(0)[0];
  NegativeSamplingUpdate(
      center, 0, 5, 0.1f, &context, sigmoid, rng,
      [](Rng&) -> VertexId { return 0; }, grad);
  const float positive_gain = context.row(0)[0] - ctx_before;
  EXPECT_GT(positive_gain, 0.0f);
}

/// Reference for NegativeSamplingUpdate: draw one negative, update its row
/// with Dot + SigmoidTable + FusedGradStep, draw the next.
template <typename NegativeFn>
void ReferenceUpdate(const float* center, VertexId positive, int negatives,
                     float lr, EmbeddingMatrix* context,
                     const SigmoidTable& sigmoid, Rng& rng,
                     NegativeFn&& sample_negative, float* grad) {
  const std::size_t dim = static_cast<std::size_t>(context->dim());
  float* pos = context->row(positive);
  const float pos_score = sigmoid(Dot(center, pos, dim));
  FusedGradStep((1.0f - pos_score) * lr, center, pos, grad, dim);
  for (int k = 0; k < negatives; ++k) {
    const VertexId neg = sample_negative(rng);
    if (neg == kInvalidVertex || neg == positive) continue;
    float* ctx = context->row(neg);
    const float score = sigmoid(Dot(center, ctx, dim));
    FusedGradStep(-score * lr, center, ctx, grad, dim);
  }
}

TEST(NegativeSamplingUpdateTest, ChunkedStepMatchesPerRowComposition) {
  // negatives = 20 overflows one kernel call, so the chunked path runs. The
  // small pool forces repeated negatives; `center_row` >= 0 takes the
  // center from the context matrix itself, as first-order LINE does.
  struct Case {
    int32_t rows;
    int center_row;
  };
  const VecBackend original = ActiveVecBackend();
  for (VecBackend backend : {VecBackend::kScalar, VecBackend::kAvx2}) {
    SetVecBackend(backend);
    for (const Case c : {Case{500, -1}, Case{6, -1}, Case{40, 3}}) {
      for (int32_t dim : {32, 7}) {
        Rng init(17);
        EmbeddingMatrix fused(c.rows, dim);
        fused.InitUniform(init);
        EmbeddingMatrix ref = fused.Clone();
        std::vector<float> own_center(static_cast<std::size_t>(dim));
        for (float& x : own_center) x = init.UniformFloat() - 0.5f;
        std::vector<float> grad_fused(own_center.size(), 0.0f);
        std::vector<float> grad_ref(own_center.size(), 0.0f);
        const SigmoidTable sigmoid;
        auto sample = [&c](Rng& r) -> VertexId {
          const uint64_t u = r.Uniform(static_cast<uint64_t>(c.rows) + 1);
          return u == 0 ? kInvalidVertex : static_cast<VertexId>(u - 1);
        };
        Rng rng_fused(23);
        Rng rng_ref(23);
        for (int step = 0; step < 50; ++step) {
          const VertexId positive = step % c.rows;
          const float* cf = c.center_row < 0 ? own_center.data()
                                             : fused.row(c.center_row);
          const float* cr =
              c.center_row < 0 ? own_center.data() : ref.row(c.center_row);
          NegativeSamplingUpdate(cf, positive, 20, 0.2f, &fused, sigmoid,
                                 rng_fused, sample, grad_fused.data());
          ReferenceUpdate(cr, positive, 20, 0.2f, &ref, sigmoid, rng_ref,
                          sample, grad_ref.data());
        }
        const std::string where = std::string(VecBackendName(backend)) +
                                  " rows=" + std::to_string(c.rows) +
                                  " dim=" + std::to_string(dim);
        EXPECT_EQ(rng_fused.Next(), rng_ref.Next()) << where;
        for (int32_t r = 0; r < c.rows; ++r) {
          for (int32_t i = 0; i < dim; ++i) {
            ASSERT_EQ(std::bit_cast<uint32_t>(fused.row(r)[i]),
                      std::bit_cast<uint32_t>(ref.row(r)[i]))
                << where << " row=" << r << " i=" << i;
          }
        }
        for (std::size_t i = 0; i < grad_ref.size(); ++i) {
          ASSERT_EQ(std::bit_cast<uint32_t>(grad_fused[i]),
                    std::bit_cast<uint32_t>(grad_ref[i]))
              << where << " grad i=" << i;
        }
      }
    }
  }
  SetVecBackend(original);
}

TEST(EdgeSamplingTrainerTest, PrepareValidatesShapes) {
  Heterograph g = TwoTopicGraph();
  auto noise = TypedNegativeSampler::Create(g);
  ASSERT_TRUE(noise.ok());
  EmbeddingMatrix wrong_rows(3, 4), context(8, 4);
  TrainOptions options;
  options.dim = 4;
  EdgeSamplingTrainer trainer(&g, &wrong_rows, &context, &*noise, options);
  EXPECT_TRUE(trainer.Prepare().IsInvalidArgument());
}

TEST(EdgeSamplingTrainerTest, PrepareRejectsDimMismatch) {
  Heterograph g = TwoTopicGraph();
  auto noise = TypedNegativeSampler::Create(g);
  ASSERT_TRUE(noise.ok());
  EmbeddingMatrix center(8, 4), context(8, 8);
  EdgeSamplingTrainer trainer(&g, &center, &context, &*noise, {});
  EXPECT_TRUE(trainer.Prepare().IsInvalidArgument());
}

TEST(EdgeSamplingTrainerTest, TrainBeforePrepareFails) {
  Heterograph g = TwoTopicGraph();
  auto noise = TypedNegativeSampler::Create(g);
  ASSERT_TRUE(noise.ok());
  EmbeddingMatrix center(8, 4), context(8, 4);
  EdgeSamplingTrainer trainer(&g, &center, &context, &*noise, {});
  EXPECT_TRUE(
      trainer.TrainEdgeType(EdgeType::kLW, 10, 0.02f).IsFailedPrecondition());
}

TEST(EdgeSamplingTrainerTest, EmptyEdgeTypeIsNoOp) {
  Heterograph g = TwoTopicGraph();
  auto noise = TypedNegativeSampler::Create(g);
  ASSERT_TRUE(noise.ok());
  EmbeddingMatrix center(8, 4), context(8, 4);
  TrainOptions options;
  options.dim = 4;
  EdgeSamplingTrainer trainer(&g, &center, &context, &*noise, options);
  ASSERT_TRUE(trainer.Prepare().ok());
  EXPECT_TRUE(trainer.TrainEdgeType(EdgeType::kUU, 100, 0.02f).ok());
  EXPECT_EQ(trainer.steps_done(), 0);
}

TEST(EdgeSamplingTrainerTest, NegativeSamplesRejected) {
  Heterograph g = TwoTopicGraph();
  auto noise = TypedNegativeSampler::Create(g);
  ASSERT_TRUE(noise.ok());
  EmbeddingMatrix center(8, 4), context(8, 4);
  TrainOptions options;
  options.dim = 4;
  EdgeSamplingTrainer trainer(&g, &center, &context, &*noise, options);
  ASSERT_TRUE(trainer.Prepare().ok());
  EXPECT_TRUE(trainer.TrainEdgeType(EdgeType::kLW, -1, 0.02f)
                  .IsInvalidArgument());
}

TEST(EdgeSamplingTrainerTest, TrainingSeparatesTopics) {
  Heterograph g = TwoTopicGraph();
  auto noise = TypedNegativeSampler::Create(g);
  ASSERT_TRUE(noise.ok());
  EmbeddingMatrix center(8, 8), context(8, 8);
  Rng rng(11);
  center.InitUniform(rng);
  context.InitZero();
  TrainOptions options;
  options.dim = 8;
  options.negatives = 2;
  options.seed = 11;
  EdgeSamplingTrainer trainer(&g, &center, &context, &*noise, options);
  ASSERT_TRUE(trainer.Prepare().ok());
  for (int epoch = 0; epoch < 30; ++epoch) {
    ASSERT_TRUE(trainer.TrainEdgeType(EdgeType::kLW, 2000, 0.05f).ok());
    ASSERT_TRUE(trainer.TrainEdgeType(EdgeType::kWW, 2000, 0.05f).ok());
  }
  EXPECT_EQ(trainer.steps_done(), 30 * 4000);
  // Words of the same topic end up more similar than across topics.
  const float same = Cosine(center.row(2), center.row(3), 8);
  const float cross = Cosine(center.row(2), center.row(5), 8);
  EXPECT_GT(same, cross);
  // Location embeds near its own words.
  const float l0_w0 = Cosine(center.row(0), center.row(2), 8);
  const float l0_w5 = Cosine(center.row(0), center.row(5), 8);
  EXPECT_GT(l0_w0, l0_w5);
}

TEST(ShardSeedTest, DistinctAcrossShardsAndSteps) {
  std::set<uint64_t> seeds;
  for (uint64_t step : {0ull, 1ull, 2ull, 4000ull}) {
    for (uint64_t shard = 0; shard < 8; ++shard) {
      seeds.insert(ShardSeed(/*base=*/42, step, shard));
    }
  }
  EXPECT_EQ(seeds.size(), 4u * 8u);
}

TEST(ShardSeedTest, ShardStreamsAreDecorrelated) {
  // The old additive scheme (seed + step + GOLDEN * (shard + 1)) produced
  // xorshift128+ states differing only in a few low bits, so neighbouring
  // shards emitted correlated streams. SplitMix64 mixing must give shards
  // with adjacent ids fully distinct draw sequences.
  const uint64_t base = 7, step = 12000;
  std::vector<Rng> rngs;
  for (uint64_t shard = 0; shard < 4; ++shard) {
    rngs.emplace_back(ShardSeed(base, step, shard));
  }
  for (std::size_t a = 0; a < rngs.size(); ++a) {
    for (std::size_t b = a + 1; b < rngs.size(); ++b) {
      Rng x(ShardSeed(base, step, a)), y(ShardSeed(base, step, b));
      int equal = 0;
      for (int i = 0; i < 256; ++i) {
        if (x.Next() == y.Next()) ++equal;
      }
      EXPECT_EQ(equal, 0) << "shards " << a << " and " << b;
    }
  }
}

TEST(ShardSeedTest, BaseSeedChangesAllShards) {
  for (uint64_t shard = 0; shard < 4; ++shard) {
    EXPECT_NE(ShardSeed(1, 0, shard), ShardSeed(2, 0, shard));
  }
}

TEST(EdgeSamplingTrainerTest, MultiThreadedTrainingRuns) {
  Heterograph g = TwoTopicGraph();
  auto noise = TypedNegativeSampler::Create(g);
  ASSERT_TRUE(noise.ok());
  EmbeddingMatrix center(8, 8), context(8, 8);
  Rng rng(13);
  center.InitUniform(rng);
  TrainOptions options;
  options.dim = 8;
  options.num_threads = 3;
  EdgeSamplingTrainer trainer(&g, &center, &context, &*noise, options);
  ASSERT_TRUE(trainer.Prepare().ok());
  ASSERT_TRUE(trainer.TrainEdgeType(EdgeType::kLW, 10000, 0.05f).ok());
  EXPECT_EQ(trainer.steps_done(), 10000);
  // Embeddings stay finite under concurrent updates.
  for (int r = 0; r < 8; ++r) {
    for (int d = 0; d < 8; ++d) {
      EXPECT_TRUE(std::isfinite(center.row(r)[d]));
      EXPECT_TRUE(std::isfinite(context.row(r)[d]));
    }
  }
}

TEST(EdgeSamplingTrainerTest, SharedExternalPoolTrainsAcrossTrainers) {
  // The persistent-pool contract: one pool, owned by the caller, serves
  // several trainers without respawning threads.
  Heterograph g = TwoTopicGraph();
  auto noise = TypedNegativeSampler::Create(g);
  ASSERT_TRUE(noise.ok());
  ThreadPool pool(2);
  for (int round = 0; round < 3; ++round) {
    EmbeddingMatrix center(8, 8), context(8, 8);
    Rng rng(17 + round);
    center.InitUniform(rng);
    TrainOptions options;
    options.dim = 8;
    options.num_threads = 2;
    options.pool = &pool;
    EdgeSamplingTrainer trainer(&g, &center, &context, &*noise, options);
    ASSERT_TRUE(trainer.Prepare().ok());
    ASSERT_TRUE(trainer.TrainEdgeType(EdgeType::kLW, 5000, 0.05f).ok());
    EXPECT_EQ(trainer.steps_done(), 5000);
    for (int r = 0; r < 8; ++r) {
      for (int d = 0; d < 8; ++d) {
        ASSERT_TRUE(std::isfinite(center.row(r)[d]));
      }
    }
  }
}

TEST(EdgeSamplingTrainerTest, SingleThreadDeterministicWithPoolPresent) {
  // A pool being available must not break the sequential single-thread
  // path: num_threads == 1 ignores the pool and stays bit-deterministic.
  Heterograph g = TwoTopicGraph();
  auto noise = TypedNegativeSampler::Create(g);
  ASSERT_TRUE(noise.ok());
  ThreadPool pool(4);
  auto run = [&](EmbeddingMatrix* center, EmbeddingMatrix* context) {
    Rng rng(31);
    center->InitUniform(rng);
    context->InitZero();
    TrainOptions options;
    options.dim = 8;
    options.negatives = 2;
    options.seed = 31;
    options.num_threads = 1;
    options.pool = &pool;
    EdgeSamplingTrainer trainer(&g, center, context, &*noise, options);
    ASSERT_TRUE(trainer.Prepare().ok());
    ASSERT_TRUE(trainer.TrainEdgeType(EdgeType::kLW, 3000, 0.05f).ok());
  };
  EmbeddingMatrix c1(8, 8), x1(8, 8), c2(8, 8), x2(8, 8);
  run(&c1, &x1);
  run(&c2, &x2);
  for (int r = 0; r < 8; ++r) {
    for (int d = 0; d < 8; ++d) {
      ASSERT_EQ(c1.row(r)[d], c2.row(r)[d]) << "row " << r << " dim " << d;
      ASSERT_EQ(x1.row(r)[d], x2.row(r)[d]) << "row " << r << " dim " << d;
    }
  }
}

}  // namespace
}  // namespace actor
