// Google-benchmark microbenchmarks for the performance-critical
// substrates: alias sampling (claimed O(1), §5.2.3), the SGD inner step
// (claimed O(d(K+1))), vector kernels, KDE, mean shift, tokenization and
// corpus building, graph construction, and the streaming edge store. Not
// tied to a paper table; used to validate the complexity claims of §5.4.

#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <utility>

#include "core/online_edge_store.h"
#include "data/corpus.h"
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

/// One streaming-trainer chunk: 16 steps (distinct center rows of a
/// 4096-row center matrix, distinct positive rows of a 4096-row context
/// matrix) sharing 5 distinct negatives. Arg 2 picks the implementation:
/// 0 = one SharedNegativeBlock call, 1 = 16 one-step calls, each over its
/// positive and its own 5 negatives, as every batch trainer's
/// NegativeSamplingUpdate makes them. Items are steps, so the time per
/// item is the time per step.
void BM_SharedNegativeBlock(benchmark::State& state) {
  const auto backend = static_cast<VecBackend>(state.range(1));
  BackendGuard guard(backend);
  if (guard.applied() != backend) {
    state.SkipWithError("backend unavailable");
    return;
  }
  const int32_t dim = static_cast<int32_t>(state.range(0));
  const bool per_step = state.range(2) != 0;
  constexpr int32_t kRows = 4096;
  constexpr std::size_t kSteps = 16;  // the streaming trainer's chunk
  constexpr std::size_t kNegatives = 5;
  EmbeddingMatrix center(kRows, dim);
  EmbeddingMatrix context(kRows, dim);
  Rng init(1);
  center.InitUniform(init);
  context.InitUniform(init);
  const std::size_t d = static_cast<std::size_t>(dim);
  const SigmoidTable sigmoid;
  std::vector<float> grads(kSteps * d);
  std::vector<float> coefs(kSteps * (1 + kNegatives));
  float* centers[kSteps] = {};
  float* positives[kSteps] = {};
  float* negatives[kNegatives] = {};
  int32_t next_center = 0;
  int32_t next_context = 0;
  auto next_row = [](int32_t* r) {
    const int32_t row = *r;
    *r = (*r + 617) & (kRows - 1);  // distinct within a block; no divide
    return row;
  };
  for (auto _ : state) {
    for (std::size_t b = 0; b < kSteps; ++b) {
      centers[b] = center.row(next_row(&next_center));
      positives[b] = context.row(next_row(&next_context));
    }
    if (per_step) {
      for (std::size_t b = 0; b < kSteps; ++b) {
        for (std::size_t k = 0; k < kNegatives; ++k) {
          negatives[k] = context.row(next_row(&next_context));
        }
        SharedNegativeBlock(&centers[b], &positives[b], 1, negatives,
                            kNegatives, 1e-6f, sigmoid, grads.data(),
                            coefs.data(), d);
      }
    } else {
      for (std::size_t k = 0; k < kNegatives; ++k) {
        negatives[k] = context.row(next_row(&next_context));
      }
      SharedNegativeBlock(centers, positives, kSteps, negatives, kNegatives,
                          1e-6f, sigmoid, grads.data(), coefs.data(), d);
    }
    benchmark::ClobberMemory();
  }
  // Rows read and written per step (docs/benchmarking.md, "Per-step SGD
  // cost"): per-step, the center and 6 context rows; block, the center and
  // the positive, plus the 5 shared negatives over 16 steps.
  const double rows_per_step =
      per_step ? 2.0 * (1 + 1 + kNegatives)
               : 2.0 * (1 + 1) + 2.0 * kNegatives / kSteps;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kSteps));
  state.SetBytesProcessed(static_cast<int64_t>(
      static_cast<double>(state.iterations()) * kSteps * rows_per_step *
      static_cast<double>(d * sizeof(float))));
  state.SetLabel(std::string(VecBackendName(backend)) +
                 (per_step ? "/per-step" : "/block"));
}
BENCHMARK(BM_SharedNegativeBlock)
    ->ArgsProduct({{32, 128},
                   {static_cast<int>(VecBackend::kScalar),
                    static_cast<int>(VecBackend::kAvx2)},
                   {0, 1}});

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
    NegativeSamplingUpdate(
        center.data(), 0, negatives, 0.02f, &context, sigmoid, rng,
        [](Rng& r) { return static_cast<VertexId>(r.Uniform(64)); },
        grad.data());
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

// The batch job's tokenize stage (TokenizedCorpus::Build) on the UTGEO-like
// corpus at scale 2: 48k records, about 5.6 MB of text. `per_token` is the
// wall time per kept token.
void BM_CorpusBuild(benchmark::State& state) {
  auto ds = GenerateSynthetic(UTGeoLikeConfig(2.0));
  if (!ds.ok()) {
    state.SkipWithError("synthetic corpus generation failed");
    return;
  }
  int64_t kept_tokens = 0;
  for (auto _ : state) {
    auto built = TokenizedCorpus::Build(ds->corpus);
    if (!built.ok()) {
      state.SkipWithError("TokenizedCorpus::Build failed");
      return;
    }
    kept_tokens = 0;
    for (const auto& rec : built->records()) {
      kept_tokens += static_cast<int64_t>(rec.word_ids.size());
    }
    benchmark::DoNotOptimize(built);
  }
  state.counters["kept_tokens"] = static_cast<double>(kept_tokens);
  state.counters["per_token"] = benchmark::Counter(
      static_cast<double>(kept_tokens),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_CorpusBuild)->Unit(benchmark::kMillisecond);

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

/// The perfbench ingest stream's edge-store traffic: 1000-record batches of
/// the streaming city preset (400 users, 12 topics, 80 venues), each
/// record's co-occurrence pairs in OnlineActor::Ingest's order (time-
/// location, location-word, word-time, word-word, then the user edges).
/// Unit ids are handed out in first-appearance order as AddUnit does, with
/// hour-of-day bins for time and 2-km grid cells for location.
std::vector<std::vector<std::pair<VertexId, VertexId>>> EdgeStoreStream() {
  SyntheticConfig config;
  config.seed = 100;
  config.num_records = 16000;
  config.num_users = 400;
  config.num_topics = 12;
  config.num_venues = 80;
  config.num_communities = 8;
  auto ds = GenerateSynthetic(config);
  auto corpus = TokenizedCorpus::Build(ds->corpus, CorpusBuildOptions());
  std::map<std::pair<int, int64_t>, VertexId> units;
  auto unit = [&units](int kind, int64_t key) {
    const auto id = static_cast<VertexId>(units.size());
    return units.emplace(std::make_pair(kind, key), id).first->second;
  };
  std::vector<std::vector<std::pair<VertexId, VertexId>>> batches;
  std::vector<VertexId> words;
  for (std::size_t r = 0; r < corpus->records().size(); ++r) {
    if (r % 1000 == 0) batches.emplace_back();
    auto& pairs = batches.back();
    auto link = [&pairs](VertexId a, VertexId b) {
      if (a != b) pairs.emplace_back(a, b);
    };
    const TokenizedRecord& rec = corpus->records()[r];
    const VertexId t = unit(0, static_cast<int64_t>(HourOfDay(rec.timestamp)));
    const VertexId l =
        unit(1, static_cast<int64_t>(std::floor(rec.location.x / 2.0)) *
                        1000003 +
                    static_cast<int64_t>(std::floor(rec.location.y / 2.0)));
    words.clear();
    for (int32_t w : rec.word_ids) words.push_back(unit(2, w));
    link(t, l);
    for (VertexId w : words) {
      link(l, w);
      link(w, t);
    }
    for (std::size_t i = 0; i < words.size(); ++i) {
      for (std::size_t j = i + 1; j < words.size(); ++j) {
        link(words[i], words[j]);
      }
    }
    auto link_user = [&](VertexId user) {
      link(user, t);
      link(user, l);
      for (VertexId w : words) link(user, w);
    };
    const VertexId u = unit(3, rec.user_id);
    link_user(u);
    for (int64_t m : rec.mentioned_user_ids) {
      const VertexId mentioned = unit(3, m);
      link_user(mentioned);
      link(u, mentioned);
    }
  }
  return batches;
}

/// One ingest cycle of an OnlineEdgeStore at perfbench batch size: decay
/// (0.7, min weight 0.05, the OnlineActor defaults), one batch's
/// accumulate burst, then the sampler refresh's degree walk (live vertices
/// in ascending id, degree^(3/4)). All of a batch's pairs go to one store,
/// so one cycle carries the accumulate work of all eight edge types. The
/// stream's batches are replayed in a loop after a warm-up that brings the
/// store to its steady live-edge count.
void BM_EdgeStoreCycle(benchmark::State& state) {
  static const auto* stream =
      new std::vector<std::vector<std::pair<VertexId, VertexId>>>(
          EdgeStoreStream());
  OnlineEdgeStore store;
  store.set_min_weight(0.05);
  std::vector<VertexId> candidates;
  std::vector<double> weights;
  std::size_t next = 0;
  int64_t accumulates = 0;
  auto cycle = [&]() {
    const auto& batch = (*stream)[next++ % stream->size()];
    store.Decay(0.7);
    for (const auto& [a, b] : batch) store.Accumulate(a, b);
    candidates.clear();
    weights.clear();
    for (VertexId v = 0; v < store.vertex_bound(); ++v) {
      if (store.incident_edges(v) == 0) continue;
      candidates.push_back(v);
      weights.push_back(std::pow(store.raw_degree(v), 0.75));
    }
    benchmark::DoNotOptimize(weights.data());
    return static_cast<int64_t>(batch.size());
  };
  for (std::size_t i = 0; i < stream->size(); ++i) cycle();
  for (auto _ : state) accumulates += cycle();
  state.SetItemsProcessed(accumulates);
  state.counters["live_edges"] = static_cast<double>(store.size());
  state.counters["accumulates_per_cycle"] =
      static_cast<double>(accumulates) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_EdgeStoreCycle)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace actor

BENCHMARK_MAIN();
