// Google-benchmark microbenchmarks for the performance-critical
// substrates: alias sampling (claimed O(1), §5.2.3), the SGD inner step
// (claimed O(d(K+1))), vector kernels, KDE, mean shift, tokenization, and
// graph construction. Not tied to a paper table; used to validate the
// complexity claims of §5.4.

#include <benchmark/benchmark.h>

#include "data/synthetic.h"
#include "data/tokenizer.h"
#include "embedding/negative_sampler.h"
#include "embedding/sgd.h"
#include "graph/alias_table.h"
#include "graph/graph_builder.h"
#include "hotspot/grid_index.h"
#include "hotspot/kde.h"
#include "hotspot/mean_shift.h"
#include "util/rng.h"
#include "util/vec_math.h"

namespace actor {
namespace {

void BM_AliasTableSample(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<double> weights(n);
  for (auto& w : weights) w = rng.UniformDouble() + 0.01;
  auto table = AliasTable::Create(weights);
  Rng sample_rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table->Sample(sample_rng));
  }
}
BENCHMARK(BM_AliasTableSample)->Arg(16)->Arg(1024)->Arg(1 << 16)->Arg(1 << 20);

/// The bucket draw alone: the 64-bit `%` that Rng::Uniform pays (arg 0)
/// against the fastmod AliasTable::Sample uses (arg 1). Same results. Each
/// draw feeds the next, so this times the latency from random word to
/// bucket — the part a trainer's dependent row loads wait on.
void BM_AliasBucketDraw(benchmark::State& state) {
  const bool fastmod = state.range(0) != 0;
  uint64_t n = 101971;
  benchmark::DoNotOptimize(n);  // a runtime divisor, as in a real table
  const FastModMagic magic = ComputeFastModMagic(n);
  Rng rng(3);
  uint64_t bucket = 0;
  for (auto _ : state) {
    const uint64_t x = rng.Next() + bucket;
    bucket = fastmod ? FastMod(x, magic, n) : x % n;
    benchmark::DoNotOptimize(bucket);
  }
  state.SetLabel(fastmod ? "fastmod" : "modulo");
}
BENCHMARK(BM_AliasBucketDraw)->Arg(0)->Arg(1);

void BM_AliasTableBuild(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<double> weights(n);
  for (auto& w : weights) w = rng.UniformDouble() + 0.01;
  for (auto _ : state) {
    auto table = AliasTable::Create(weights);
    benchmark::DoNotOptimize(table);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_AliasTableBuild)->Range(1 << 8, 1 << 18)->Complexity();

void BM_Dot(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  std::vector<float> x(dim, 0.5f), y(dim, 0.25f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(x.data(), y.data(), dim));
  }
}
BENCHMARK(BM_Dot)->Arg(32)->Arg(64)->Arg(128)->Arg(300);

/// Temporarily pins the dispatched kernels to one backend; restores the
/// default (best available) when the benchmark ends.
class BackendGuard {
 public:
  explicit BackendGuard(VecBackend b) : applied_(SetVecBackend(b)) {}
  ~BackendGuard() { SetVecBackend(VecBackend::kAvx2); }
  VecBackend applied() const { return applied_; }

 private:
  VecBackend applied_;
};

void BM_DotBackend(benchmark::State& state) {
  const auto backend = static_cast<VecBackend>(state.range(1));
  BackendGuard guard(backend);
  if (guard.applied() != backend) {
    state.SkipWithError("backend unavailable");
    return;
  }
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  std::vector<float> x(dim, 0.5f), y(dim, 0.25f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(x.data(), y.data(), dim));
  }
  state.SetLabel(VecBackendName(backend));
}
BENCHMARK(BM_DotBackend)
    ->Args({64, static_cast<int>(VecBackend::kScalar)})
    ->Args({64, static_cast<int>(VecBackend::kAvx2)})
    ->Args({300, static_cast<int>(VecBackend::kScalar)})
    ->Args({300, static_cast<int>(VecBackend::kAvx2)});

void BM_FusedGradStepBackend(benchmark::State& state) {
  const auto backend = static_cast<VecBackend>(state.range(1));
  BackendGuard guard(backend);
  if (guard.applied() != backend) {
    state.SkipWithError("backend unavailable");
    return;
  }
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  std::vector<float> center(dim, 0.5f), ctx(dim, 0.25f), grad(dim);
  for (auto _ : state) {
    FusedGradStep(1e-9f, center.data(), ctx.data(), grad.data(), dim);
    benchmark::DoNotOptimize(ctx.data());
    benchmark::DoNotOptimize(grad.data());
  }
  state.SetLabel(VecBackendName(backend));
}
BENCHMARK(BM_FusedGradStepBackend)
    ->Args({64, static_cast<int>(VecBackend::kScalar)})
    ->Args({64, static_cast<int>(VecBackend::kAvx2)})
    ->Args({300, static_cast<int>(VecBackend::kScalar)})
    ->Args({300, static_cast<int>(VecBackend::kAvx2)});

/// One positive plus five negatives, pairwise-distinct rows of a
/// 4096-row matrix (the common case of the SGD inner loop). Arg 2 picks the
/// implementation: 0 = the NegativeSamplingStep kernel, 1 = the per-row
/// Dot + SigmoidTable + FusedGradStep composition it replaced.
void BM_NegativeSamplingStepBackend(benchmark::State& state) {
  const auto backend = static_cast<VecBackend>(state.range(1));
  BackendGuard guard(backend);
  if (guard.applied() != backend) {
    state.SkipWithError("backend unavailable");
    return;
  }
  const int32_t dim = static_cast<int32_t>(state.range(0));
  const bool per_row = state.range(2) != 0;
  constexpr int32_t kRows = 4096;
  constexpr std::size_t kStepRows = 6;
  EmbeddingMatrix context(kRows, dim);
  Rng init(1);
  context.InitUniform(init);
  std::vector<float> center(static_cast<std::size_t>(dim), 0.01f);
  std::vector<float> grad(center.size());
  const SigmoidTable sigmoid;
  const std::size_t d = center.size();
  float* rows[kStepRows] = {};
  int32_t next = 0;
  for (auto _ : state) {
    for (std::size_t k = 0; k < kStepRows; ++k) {
      rows[k] = context.row(next);
      next = (next + 617) % kRows;  // distinct within a step
    }
    if (per_row) {
      for (std::size_t k = 0; k < kStepRows; ++k) {
        const float score = sigmoid(Dot(center.data(), rows[k], d));
        const float g = k == 0 ? (1.0f - score) * 1e-6f : -score * 1e-6f;
        FusedGradStep(g, center.data(), rows[k], grad.data(), d);
      }
    } else {
      NegativeSamplingStep(center.data(), rows, kStepRows, true, 1e-6f,
                           sigmoid, grad.data(), d);
    }
    benchmark::DoNotOptimize(grad.data());
    benchmark::ClobberMemory();
  }
  // Bytes moved per step: 6 rows read and written, plus the center read
  // (grad stays in L1; docs/benchmarking.md, "Per-step SGD cost").
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>((2 * kStepRows + 1) * d *
                                               sizeof(float)));
  state.SetLabel(std::string(VecBackendName(backend)) +
                 (per_row ? "/per-row" : "/kernel"));
}
BENCHMARK(BM_NegativeSamplingStepBackend)
    ->ArgsProduct({{32, 128},
                   {static_cast<int>(VecBackend::kScalar),
                    static_cast<int>(VecBackend::kAvx2)},
                   {0, 1}});

/// The fused kernel against the two-pass Axpy pair it replaced.
void BM_TwoPassGradStep(benchmark::State& state) {
  const std::size_t dim = static_cast<std::size_t>(state.range(0));
  std::vector<float> center(dim, 0.5f), ctx(dim, 0.25f), grad(dim);
  for (auto _ : state) {
    Axpy(1e-9f, ctx.data(), grad.data(), dim);
    Axpy(1e-9f, center.data(), ctx.data(), dim);
    benchmark::DoNotOptimize(ctx.data());
    benchmark::DoNotOptimize(grad.data());
  }
}
BENCHMARK(BM_TwoPassGradStep)->Arg(64)->Arg(300);

void BM_SigmoidTable(benchmark::State& state) {
  static const SigmoidTable table;
  float x = -6.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table(x));
    x += 0.001f;
    if (x > 6.0f) x = -6.0f;
  }
}
BENCHMARK(BM_SigmoidTable);

void BM_SigmoidExact(benchmark::State& state) {
  float x = -6.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sigmoid(x));
    x += 0.001f;
    if (x > 6.0f) x = -6.0f;
  }
}
BENCHMARK(BM_SigmoidExact);

/// One negative-sampling SGD step on a dim-sized pair with K negatives —
/// the O(d(K+1)) inner loop of §5.4.
void BM_SgdStep(benchmark::State& state) {
  const int32_t dim = static_cast<int32_t>(state.range(0));
  const int negatives = static_cast<int>(state.range(1));
  EmbeddingMatrix context(64, dim);
  Rng init(1);
  context.InitUniform(init);
  std::vector<float> center(dim, 0.01f), grad(dim);
  const SigmoidTable sigmoid;
  Rng rng(2);
  for (auto _ : state) {
    Zero(grad.data(), dim);
    NegativeSamplingUpdate(
        center.data(), 0, negatives, 0.02f, &context, sigmoid, rng,
        [](Rng& r) { return static_cast<VertexId>(r.Uniform(64)); },
        grad.data());
    Add(grad.data(), center.data(), dim);
  }
}
BENCHMARK(BM_SgdStep)->Args({32, 1})->Args({32, 5})->Args({300, 1})
    ->Args({300, 5});

/// Full TrainEdgeType batches through the persistent pool: measures
/// spawn-free sharding and HOGWILD thread scaling on the trainer itself.
void BM_TrainEdgeTypeThreads(benchmark::State& state) {
  static SyntheticConfig config = [] {
    SyntheticConfig c;
    c.num_records = 4000;
    c.num_users = 200;
    return c;
  }();
  static auto ds = GenerateSynthetic(config);
  static auto corpus = [] {
    CorpusBuildOptions build;
    return TokenizedCorpus::Build(ds->corpus, build);
  }();
  static auto hotspots = DetectHotspots(*corpus);
  static auto graphs = BuildGraphs(*corpus, *hotspots);
  static auto sampler = TypedNegativeSampler::Create(graphs->activity);

  const int threads = static_cast<int>(state.range(0));
  EmbeddingMatrix center(graphs->activity.num_vertices(), 64);
  EmbeddingMatrix context(graphs->activity.num_vertices(), 64);
  Rng init(1);
  center.InitUniform(init);
  context.InitZero();
  TrainOptions opts;
  opts.dim = 64;
  opts.negatives = 5;
  opts.num_threads = threads;
  EdgeSamplingTrainer trainer(&graphs->activity, &center, &context,
                              &sampler.ValueOrDie(), opts);
  if (auto st = trainer.Prepare(); !st.ok()) {
    state.SkipWithError(st.ToString().c_str());
    return;
  }
  constexpr int64_t kBatch = 20000;
  for (auto _ : state) {
    (void)trainer.TrainEdgeType(EdgeType::kLW, kBatch, 0.02f);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_TrainEdgeTypeThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_Kde2dDensity(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  std::vector<GeoPoint> points(n);
  for (auto& p : points) {
    p = {rng.UniformRange(0, 40), rng.UniformRange(0, 40)};
  }
  auto kde = Kde2d::Create(points, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kde->Density({20, 20}));
  }
}
BENCHMARK(BM_Kde2dDensity)->Arg(1000)->Arg(10000);

void BM_MeanShift2d(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  std::vector<GeoPoint> points(n);
  for (auto& p : points) {
    // 10 clusters.
    const int c = static_cast<int>(rng.Uniform(10));
    p = {rng.Gaussian(4.0 * c, 0.3), rng.Gaussian(4.0 * (c % 3), 0.3)};
  }
  MeanShiftOptions options;
  options.bandwidth = 1.0;
  for (auto _ : state) {
    auto modes = MeanShiftModes2d(points, options);
    benchmark::DoNotOptimize(modes);
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_MeanShift2d)->Range(1000, 32000)->Complexity();

void BM_GridIndexNearest(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  std::vector<GeoPoint> points(n);
  for (auto& p : points) {
    p = {rng.UniformRange(0, 40), rng.UniformRange(0, 40)};
  }
  Grid2dIndex index(points);
  Rng query_rng(8);
  for (auto _ : state) {
    const GeoPoint q{query_rng.UniformRange(0, 40),
                     query_rng.UniformRange(0, 40)};
    benchmark::DoNotOptimize(index.Nearest(q));
  }
}
BENCHMARK(BM_GridIndexNearest)->Arg(100)->Arg(1000)->Arg(10000);

void BM_BruteForceNearest(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  std::vector<GeoPoint> points(n);
  for (auto& p : points) {
    p = {rng.UniformRange(0, 40), rng.UniformRange(0, 40)};
  }
  Rng query_rng(8);
  for (auto _ : state) {
    const GeoPoint q{query_rng.UniformRange(0, 40),
                     query_rng.UniformRange(0, 40)};
    int best = -1;
    double best_dist = 1e18;
    for (int i = 0; i < n; ++i) {
      const double d = Distance(q, points[i]);
      if (d < best_dist) {
        best_dist = d;
        best = i;
      }
    }
    benchmark::DoNotOptimize(best);
  }
}
BENCHMARK(BM_BruteForceNearest)->Arg(100)->Arg(1000)->Arg(10000);

void BM_Tokenize(benchmark::State& state) {
  Tokenizer tokenizer;
  const std::string text =
      "Just watched a screening of The Judge for SAG voters and what a "
      "treat at the end #Hollywood @someone";
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(text));
  }
}
BENCHMARK(BM_Tokenize);

void BM_GraphBuild(benchmark::State& state) {
  SyntheticConfig config;
  config.num_records = static_cast<int>(state.range(0));
  config.num_users = config.num_records / 20;
  config.num_venues = 100;
  config.num_topics = 12;
  config.num_communities = 8;
  auto ds = GenerateSynthetic(config);
  CorpusBuildOptions build;
  auto corpus = TokenizedCorpus::Build(ds->corpus, build);
  auto hotspots = DetectHotspots(*corpus);
  for (auto _ : state) {
    auto graphs = BuildGraphs(*corpus, *hotspots);
    benchmark::DoNotOptimize(graphs);
  }
}
BENCHMARK(BM_GraphBuild)->Arg(2000)->Arg(8000)->Unit(benchmark::kMillisecond);

void BM_TypedNegativeSample(benchmark::State& state) {
  SyntheticConfig config;
  config.num_records = 4000;
  config.num_users = 200;
  auto ds = GenerateSynthetic(config);
  CorpusBuildOptions build;
  auto corpus = TokenizedCorpus::Build(ds->corpus, build);
  auto hotspots = DetectHotspots(*corpus);
  auto graphs = BuildGraphs(*corpus, *hotspots);
  auto sampler = TypedNegativeSampler::Create(graphs->activity);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sampler->Sample(EdgeType::kLW, VertexType::kWord, rng));
  }
}
BENCHMARK(BM_TypedNegativeSample);

}  // namespace
}  // namespace actor

BENCHMARK_MAIN();
