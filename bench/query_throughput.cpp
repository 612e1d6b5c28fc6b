// Serving-layer query-throughput harness: times QueryEngine's top-k
// cross-modal queries against published ModelSnapshots and emits
// BENCH_query.json so the read path's perf trajectory is tracked across
// PRs, alongside BENCH_sgd.json (batch trainer) and BENCH_online.json
// (streaming ingest).
//
// Rows: single-thread steady-state queries/s against a fixed snapshot
// (mode "single_thread"), multi-thread scaling on the same frozen
// snapshot at 2/4/8 query threads (mode "parallel"), and the serving
// contract's headline number — query threads running concurrently with a
// live Ingest()+PublishSnapshot() writer (mode "concurrent_ingest"),
// which exercises the SnapshotStore atomic slot under real contention.
// A second section, "publish_cost", times the write side of the store:
// microseconds per publish for a full copy (what a first publish costs)
// vs the chunk-COW delta path at controlled dirty-row fractions.
// See EXPERIMENTS.md for the machine-drift caveat before comparing
// against committed numbers.
//
// Usage: query_throughput [--records=12000] [--batches=12] [--dim=32]
//                         [--k=10] [--queries=4000]
//                         [--out=BENCH_query.json]

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/online_actor.h"
#include "data/corpus.h"
#include "data/synthetic.h"
#include "embedding/dirty_rows.h"
#include "serve/chunked_matrix.h"
#include "serve/model_snapshot.h"
#include "serve/query_engine.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "util/vec_math.h"

namespace actor {
namespace {

struct QueryRow {
  std::string mode;  // "single_thread", "parallel", or "concurrent_ingest"
  int threads = 1;
  double queries_per_sec = 0.0;
};

/// Round-robins the probe queries of one worker: alternating location /
/// hour / vector lookups so the measured mix touches the hotspot snap,
/// the hour snap, and the raw matrix scan. Returns the number of
/// successful queries (any failure short-circuits to 0 so a broken run
/// cannot masquerade as a fast one).
int64_t RunQueries(const QueryEngine& engine, const GeoPoint& probe,
                   int64_t count, int k, int worker) {
  int64_t ok = 0;
  const ChunkedMatrix& center = engine.snapshot().center();
  for (int64_t i = 0; i < count; ++i) {
    switch ((i + worker) % 3) {
      case 0: {
        auto r = engine.QueryByLocation(probe, VertexType::kWord, k);
        if (!r.ok()) return 0;
        break;
      }
      case 1: {
        auto r = engine.QueryByHour(static_cast<double>((i + worker) % 24),
                                    VertexType::kLocation, k);
        if (!r.ok()) return 0;
        break;
      }
      default: {
        const VertexId q =
            static_cast<VertexId>((i * 7 + worker) % center.rows());
        auto r = engine.QueryByVector(center.row(q), VertexType::kWord, k, q);
        if (!r.ok()) return 0;
        break;
      }
    }
    ++ok;
  }
  return ok;
}

/// Queries/s with `threads` workers hammering one frozen snapshot (no
/// writer). threads == 1 is the single-thread baseline row.
QueryRow MeasureParallel(const OnlineActor& model, const GeoPoint& probe,
                         int64_t queries, int k, int threads) {
  QueryRow row;
  row.mode = threads == 1 ? "single_thread" : "parallel";
  row.threads = threads;
  auto snapshot = model.CurrentSnapshot();
  if (snapshot == nullptr) return row;
  QueryEngine engine(std::move(snapshot));

  const int64_t per_worker = queries / threads;
  std::vector<int64_t> done(static_cast<std::size_t>(threads), 0);
  Stopwatch timer;
  if (threads == 1) {
    done[0] = RunQueries(engine, probe, per_worker, k, 0);
  } else {
    ThreadPool pool(threads);
    for (int t = 0; t < threads; ++t) {
      pool.Submit([&, t] {
        done[static_cast<std::size_t>(t)] =
            RunQueries(engine, probe, per_worker, k, t);
      });
    }
    pool.Wait();
  }
  const double secs = timer.ElapsedSeconds();
  int64_t total = 0;
  for (int64_t d : done) {
    if (d == 0) {
      std::fprintf(stderr, "query worker failed (mode=%s threads=%d)\n",
                   row.mode.c_str(), threads);
      return row;
    }
    total += d;
  }
  if (secs > 0.0) {
    row.queries_per_sec = static_cast<double>(total) / secs;
  }
  return row;
}

/// The serving contract under load: `threads` query workers re-acquire
/// the latest snapshot every iteration while the ingest thread keeps
/// training and publishing new versions. Measures queries/s over the
/// window in which the writer is live, so the row captures snapshot
/// acquisition + publication churn, not just scoring.
QueryRow MeasureConcurrentWithIngest(
    OnlineActor* model, const std::vector<std::vector<TokenizedRecord>>& tail,
    const GeoPoint& probe, int k, int threads) {
  QueryRow row;
  row.mode = "concurrent_ingest";
  row.threads = threads;

  std::atomic<bool> ingest_done{false};
  std::atomic<int64_t> total{0};
  std::atomic<bool> failed{false};
  ThreadPool pool(threads);
  for (int t = 0; t < threads; ++t) {
    pool.Submit([&, t] {
      int64_t mine = 0;
      while (!ingest_done.load(std::memory_order_acquire)) {
        auto snap = model->CurrentSnapshot();
        if (snap == nullptr) continue;
        QueryEngine engine(std::move(snap));
        if (RunQueries(engine, probe, 16, k, t) == 0) {
          failed.store(true, std::memory_order_relaxed);
          return;
        }
        mine += 16;
      }
      total.fetch_add(mine, std::memory_order_relaxed);
    });
  }

  Stopwatch timer;
  for (const auto& batch : tail) {
    if (auto st = model->Ingest(batch); !st.ok()) {
      std::fprintf(stderr, "ingest: %s\n", st.ToString().c_str());
      failed.store(true, std::memory_order_relaxed);
      break;
    }
    model->PublishSnapshot();
  }
  ingest_done.store(true, std::memory_order_release);
  pool.Wait();
  const double secs = timer.ElapsedSeconds();
  if (failed.load() || secs <= 0.0) return row;
  row.queries_per_sec = static_cast<double>(total.load()) / secs;
  return row;
}

struct PublishRow {
  int dirty_pct = 0;
  double full_us = 0.0;   // us/publish, full copy (a first publish)
  double delta_us = 0.0;  // us/publish, chunk-COW delta path
  double speedup = 0.0;   // full_us / delta_us
};

/// Mean microseconds per call of one publish flavor: repeats `publish`
/// until ~50ms of wall clock has passed (one untimed warm-up first).
template <typename Fn>
double TimePublish(Fn&& publish) {
  publish();
  Stopwatch timer;
  int iters = 0;
  double secs = 0.0;
  do {
    publish();
    ++iters;
    secs = timer.ElapsedSeconds();
  } while (secs < 0.05);
  return secs * 1e6 / iters;
}

/// The publish_cost section: us/publish for full-copy vs delta at dirty
/// fractions of 1/5/10/25/100% of the model's rows. Dirty rows form one
/// contiguous block at the tail of the id space — the clustered pattern a
/// streaming batch produces (recently added and re-trained units share
/// high ids). A uniform-random 10% of rows would land in nearly every
/// 64-row chunk and degenerate the delta to a full matrix copy; the
/// clustering is what the chunk-COW layout monetizes. The delta loop
/// chains each snapshot as the next publish's predecessor, matching the
/// steady-state PublishSnapshot() cycle.
std::vector<PublishRow> MeasurePublishCost(const OnlineActor& model) {
  std::vector<PublishRow> rows;
  const auto base = model.CurrentSnapshot();
  if (base == nullptr) return rows;
  const EmbeddingMatrix& center = model.center();
  const int32_t n = center.rows();
  if (n <= 0 || base->num_units() != n) return rows;

  uint64_t version = base->version();
  for (int pct : {1, 5, 10, 25, 100}) {
    PublishRow row;
    row.dirty_pct = pct;
    const int32_t span = std::max<int32_t>(1, n * pct / 100);
    DirtyRowSet dirty;
    dirty.Resize(n);
    for (int32_t r = n - span; r < n; ++r) dirty.Mark(r);

    // A full publish copies every chunk and the whole catalogue.
    row.full_us = TimePublish([&] {
      auto snap = ModelSnapshot::FromOnline(ChunkedMatrix::FullCopy(center),
                                            model.catalog(), ++version);
      (void)snap;
    });
    auto prev = base;
    row.delta_us = TimePublish([&] {
      prev = prev->WithCenter(
          ChunkedMatrix::DeltaCopy(center, prev->center(), dirty), ++version);
    });
    row.speedup = row.delta_us > 0.0 ? row.full_us / row.delta_us : 0.0;
    rows.push_back(row);
  }
  return rows;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int records = static_cast<int>(flags.GetInt("records", 12000));
  const int batches = static_cast<int>(flags.GetInt("batches", 12));
  const int32_t dim = static_cast<int32_t>(flags.GetInt("dim", 32));
  const int k = static_cast<int>(flags.GetInt("k", 10));
  const int64_t queries = flags.GetInt("queries", 4000);
  const std::string out_path = flags.GetString("out", "BENCH_query.json");
  if (records < batches || batches < 4 || dim < 1 || k < 1 || queries < 8) {
    std::fprintf(stderr,
                 "invalid flags: --records=%d --batches=%d --dim=%d --k=%d "
                 "--queries=%lld (need records >= batches >= 4, dim >= 1, "
                 "k >= 1, queries >= 8)\n",
                 records, batches, dim, k,
                 static_cast<long long>(queries));
    return 1;
  }

  std::printf("building synthetic stream...\n");
  SyntheticConfig config;
  config.seed = 300;
  config.num_records = records;
  config.num_users = 400;
  config.num_topics = 12;
  config.num_venues = 80;
  config.num_communities = 8;
  auto ds = GenerateSynthetic(config, "query-throughput");
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  CorpusBuildOptions build;
  auto corpus = TokenizedCorpus::Build(ds->corpus, build);
  if (!corpus.ok()) {
    std::fprintf(stderr, "%s\n", corpus.status().ToString().c_str());
    return 1;
  }
  std::vector<std::vector<TokenizedRecord>> stream(
      static_cast<std::size_t>(batches));
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    stream[i * static_cast<std::size_t>(batches) / corpus->size()].push_back(
        corpus->record(i));
  }

  // Ingest the first half of the stream to populate the model, publish,
  // and keep the back half for the concurrent-ingest rows.
  OnlineActorOptions options;
  options.dim = dim;
  options.decay_per_batch = 0.7;
  options.samples_per_edge_per_batch = 3.0;
  auto model = OnlineActor::Create(options);
  if (!model.ok()) {
    std::fprintf(stderr, "create: %s\n", model.status().ToString().c_str());
    return 1;
  }
  const std::size_t head = stream.size() / 2;
  for (std::size_t i = 0; i < head; ++i) {
    if (auto st = model->Ingest(stream[i]); !st.ok()) {
      std::fprintf(stderr, "ingest: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  model->PublishSnapshot();
  const GeoPoint probe = stream[0].front().location;

  std::vector<QueryRow> rows;
  for (int threads : {1, 2, 4, 8}) {
    rows.push_back(MeasureParallel(*model, probe, queries, k, threads));
  }
  std::vector<std::vector<TokenizedRecord>> tail(stream.begin() + head,
                                                 stream.end());
  rows.push_back(MeasureConcurrentWithIngest(&*model, tail, probe, k, 4));
  for (const auto& row : rows) {
    std::printf("mode=%-17s threads=%d  %.1f queries/s\n", row.mode.c_str(),
                row.threads, row.queries_per_sec);
  }

  const std::vector<PublishRow> publish = MeasurePublishCost(*model);
  double speedup_10pct = 0.0;
  for (const auto& row : publish) {
    std::printf("publish dirty=%3d%%  full=%.1fus  delta=%.1fus  (x%.1f)\n",
                row.dirty_pct, row.full_us, row.delta_us, row.speedup);
    if (row.dirty_pct == 10) speedup_10pct = row.speedup;
  }

  auto find = [&rows](const std::string& mode, int threads) {
    for (const auto& r : rows) {
      if (r.mode == mode && r.threads == threads) return r.queries_per_sec;
    }
    return 0.0;
  };
  const double single = find("single_thread", 1);
  const double par8 = find("parallel", 8);
  const double live4 = find("concurrent_ingest", 4);
  const double thread_speedup = single > 0.0 ? par8 / single : 0.0;
  // Queries/s retained at 4 threads once a live writer shares the store —
  // the cost of publication churn relative to the frozen-snapshot run.
  const double par4 = find("parallel", 4);
  const double live_retention = par4 > 0.0 ? live4 / par4 : 0.0;

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"bench\": \"query_throughput\",\n";
  out << "  \"records\": " << records << ",\n";
  out << "  \"batches\": " << batches << ",\n";
  out << "  \"dim\": " << dim << ",\n";
  out << "  \"k\": " << k << ",\n";
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"simd_available\": " << (Avx2Available() ? "true" : "false")
      << ",\n";
  char buf[160];
  out << "  \"throughput\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"mode\": \"%s\", \"threads\": %d, "
                  "\"queries_per_sec\": %.1f}%s\n",
                  rows[i].mode.c_str(), rows[i].threads,
                  rows[i].queries_per_sec, i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
  out << "  \"publish_cost\": [\n";
  for (std::size_t i = 0; i < publish.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"dirty_pct\": %d, \"full_us_per_publish\": %.2f, "
                  "\"delta_us_per_publish\": %.2f, \"speedup\": %.2f}%s\n",
                  publish[i].dirty_pct, publish[i].full_us,
                  publish[i].delta_us, publish[i].speedup,
                  i + 1 < publish.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"thread_speedup_8t_vs_1t\": %.3f,\n", thread_speedup);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"concurrent_ingest_retention_4t\": %.3f,\n",
                live_retention);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"delta_speedup_10pct\": %.3f\n", speedup_10pct);
  out << buf;
  out << "}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "write to %s failed\n", out_path.c_str());
    return 1;
  }
  std::printf(
      "wrote %s (threads x%.2f at 8 vs 1, live-ingest retention %.2f at 4t, "
      "delta publish x%.1f at 10%% dirty)\n",
      out_path.c_str(), thread_speedup, live_retention, speedup_10pct);
  return 0;
}

}  // namespace
}  // namespace actor

int main(int argc, char** argv) { return actor::Main(argc, argv); }
