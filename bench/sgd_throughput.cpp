// SGD training-throughput harness: measures negative-sampling SGD
// steps/sec through EdgeSamplingTrainer (the §5.2.3 inner loop behind
// every trainer in the repo) across kernel backends (scalar vs runtime
// SIMD) and thread counts (1/2/4/8 on the persistent pool), plus the raw
// kernel bandwidth of Dot/Axpy. Emits BENCH_sgd.json so the perf
// trajectory is tracked across PRs.
//
// Usage: sgd_throughput [--dim=64] [--negatives=5] [--samples=300000]
//                       [--out=BENCH_sgd.json]

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "embedding/negative_sampler.h"
#include "embedding/sgd.h"
#include "eval/pipeline.h"
#include "graph/graph_builder.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/vec_math.h"

namespace actor {
namespace {

struct ThroughputRow {
  std::string backend;
  int threads = 1;
  double steps_per_sec = 0.0;
};

struct KernelRow {
  std::string kernel;
  std::string backend;
  int dim = 0;
  double gflops = 0.0;
};

/// Densest edge type of the activity graph — the representative workload.
EdgeType DensestEdgeType(const Heterograph& g) {
  EdgeType best = EdgeType::kLW;
  std::size_t best_edges = 0;
  for (int e = 0; e < kNumEdgeTypes; ++e) {
    const std::size_t n = g.edges(static_cast<EdgeType>(e)).size();
    if (n > best_edges) {
      best_edges = n;
      best = static_cast<EdgeType>(e);
    }
  }
  return best;
}

double MeasureStepsPerSec(const BuiltGraphs& graphs, EdgeType edge_type,
                          int32_t dim, int negatives, int threads,
                          int64_t samples) {
  const Heterograph& g = graphs.activity;
  EmbeddingMatrix center(g.num_vertices(), dim);
  EmbeddingMatrix context(g.num_vertices(), dim);
  Rng rng(13);
  center.InitUniform(rng);
  context.InitZero();
  auto noise = TypedNegativeSampler::Create(g);
  if (!noise.ok()) {
    std::fprintf(stderr, "sampler: %s\n", noise.status().ToString().c_str());
    return 0.0;
  }
  TrainOptions opts;
  opts.dim = dim;
  opts.negatives = negatives;
  opts.num_threads = threads;
  opts.seed = 7;
  EdgeSamplingTrainer trainer(&g, &center, &context, &noise.ValueOrDie(),
                              opts);
  if (auto st = trainer.Prepare(); !st.ok()) {
    std::fprintf(stderr, "prepare: %s\n", st.ToString().c_str());
    return 0.0;
  }
  // Warm caches + page in the matrices.
  (void)trainer.TrainEdgeType(edge_type, samples / 10, 0.02f);
  Stopwatch timer;
  (void)trainer.TrainEdgeType(edge_type, samples, 0.02f);
  const double secs = timer.ElapsedSeconds();
  return secs > 0.0 ? static_cast<double>(samples) / secs : 0.0;
}

double MeasureKernelGflops(const char* kernel, int dim) {
  const std::size_t n = static_cast<std::size_t>(dim);
  std::vector<float> x(n, 0.5f), y(n, 0.25f);
  const int64_t reps = 2'000'000;
  Stopwatch timer;
  // Plain accumulator + one volatile store at the end: compound assignment
  // to a volatile is deprecated in C++20, and a single opaque store is
  // enough to keep the loops from being optimized out.
  float acc = 0.0f;
  if (std::string(kernel) == "dot") {
    for (int64_t r = 0; r < reps; ++r) acc += Dot(x.data(), y.data(), n);
  } else {  // axpy
    for (int64_t r = 0; r < reps; ++r) Axpy(1e-9f, x.data(), y.data(), n);
    acc += y[0];
  }
  volatile float sink = acc;
  (void)sink;
  const double secs = timer.ElapsedSeconds();
  // dot and axpy: 2n flops each.
  return secs > 0.0 ? 2.0 * dim * reps / secs / 1e9 : 0.0;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int32_t dim = static_cast<int32_t>(flags.GetInt("dim", 64));
  const int negatives = static_cast<int>(flags.GetInt("negatives", 5));
  const int64_t samples = flags.GetInt("samples", 300000);
  const std::string out_path = flags.GetString("out", "BENCH_sgd.json");
  if (dim < 1 || negatives < 0 || samples < 1) {
    std::fprintf(stderr,
                 "invalid flags: --dim=%d --negatives=%d --samples=%lld "
                 "(need dim >= 1, negatives >= 0, samples >= 1)\n",
                 dim, negatives, static_cast<long long>(samples));
    return 1;
  }

  std::printf("building synthetic workload...\n");
  PipelineOptions pipeline = UTGeoPipeline(0.25);
  auto prepared = PrepareDataset(pipeline, "sgd-throughput");
  if (!prepared.ok()) {
    std::fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
    return 1;
  }
  const BuiltGraphs& graphs = *prepared->graphs;
  const EdgeType edge_type = DensestEdgeType(graphs.activity);

  const bool simd = Avx2Available();
  std::vector<VecBackend> backends = {VecBackend::kScalar};
  if (simd) backends.push_back(VecBackend::kAvx2);
  const std::vector<int> thread_counts = {1, 2, 4, 8};

  std::vector<ThroughputRow> rows;
  std::vector<KernelRow> kernel_rows;
  for (VecBackend backend : backends) {
    SetVecBackend(backend);
    const char* name = VecBackendName(ActiveVecBackend());
    for (const char* kernel : {"dot", "axpy"}) {
      for (int kdim : {32, 64, 128, 300}) {
        kernel_rows.push_back(
            {kernel, name, kdim, MeasureKernelGflops(kernel, kdim)});
      }
    }
    for (int threads : thread_counts) {
      ThroughputRow row;
      row.backend = name;
      row.threads = threads;
      row.steps_per_sec = MeasureStepsPerSec(graphs, edge_type, dim,
                                             negatives, threads, samples);
      std::printf("backend=%-6s threads=%d  %.0f steps/s\n",
                  row.backend.c_str(), row.threads, row.steps_per_sec);
      rows.push_back(row);
    }
  }
  SetVecBackend(VecBackend::kAvx2);  // restore the default dispatch

  auto find = [&rows](const std::string& backend, int threads) {
    for (const auto& r : rows) {
      if (r.backend == backend && r.threads == threads) {
        return r.steps_per_sec;
      }
    }
    return 0.0;
  };
  const std::string fast = simd ? "avx2" : "scalar";
  const double scalar1 = find("scalar", 1);
  const double fast1 = find(fast, 1);
  const double fast8 = find(fast, 8);
  const double simd_speedup = scalar1 > 0.0 ? fast1 / scalar1 : 0.0;
  const double thread_speedup = fast1 > 0.0 ? fast8 / fast1 : 0.0;

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"bench\": \"sgd_throughput\",\n";
  out << "  \"dim\": " << dim << ",\n";
  out << "  \"negatives\": " << negatives << ",\n";
  out << "  \"samples\": " << samples << ",\n";
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"simd_available\": " << (simd ? "true" : "false") << ",\n";
  char buf[128];
  out << "  \"throughput\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"backend\": \"%s\", \"threads\": %d, "
                  "\"steps_per_sec\": %.1f}%s\n",
                  rows[i].backend.c_str(), rows[i].threads,
                  rows[i].steps_per_sec, i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
  out << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < kernel_rows.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"kernel\": \"%s\", \"backend\": \"%s\", \"dim\": "
                  "%d, \"gflops\": %.3f}%s\n",
                  kernel_rows[i].kernel.c_str(),
                  kernel_rows[i].backend.c_str(), kernel_rows[i].dim,
                  kernel_rows[i].gflops,
                  i + 1 < kernel_rows.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
  std::snprintf(buf, sizeof(buf), "  \"simd_speedup_1t\": %.3f,\n",
                simd_speedup);
  out << buf;
  std::snprintf(buf, sizeof(buf), "  \"thread_speedup_8t_vs_1t\": %.3f\n",
                thread_speedup);
  out << buf;
  out << "}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "write to %s failed\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (simd x%.2f at 1 thread, x%.2f at 8 threads vs 1)\n",
              out_path.c_str(), simd_speedup, thread_speedup);
  return 0;
}

}  // namespace
}  // namespace actor

int main(int argc, char** argv) { return actor::Main(argc, argv); }
