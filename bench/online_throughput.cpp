// Streaming ingest-throughput harness: times the full OnlineActor
// Ingest() cycle (decay -> resolve -> accumulate -> sampler refresh ->
// re-embed) on a synthetic activity stream and emits BENCH_online.json so
// the streaming path's perf trajectory is tracked across PRs, alongside
// BENCH_sgd.json for the batch trainer.
//
// Rows: full-rebuild mode at 1 thread (the pre-port behavior, via
// incremental_sampler=false) plus the incremental-sampler path at
// 1/2/4/8 threads on the persistent pool, plus the sparse-stream
// pure-decay column (empty Ingest() ticks, where the version-stamped
// sampler cache skips the rebuild of every edge store whose decay dropped
// no edge). A "sharding" section
// repeats the steady-state ingest with the ownership-partitioned trainer
// at 1/2/4 shards (one worker per shard). See EXPERIMENTS.md for the
// machine-drift caveat and docs/sharding.md for the 1-core caveat on the
// shard rows before comparing against committed numbers.
//
// Usage: online_throughput [--records=12000] [--batches=12] [--dim=32]
//                          [--pure_decay_ticks=6] [--out=BENCH_online.json]

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/online_actor.h"
#include "data/corpus.h"
#include "data/synthetic.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "util/vec_math.h"

namespace actor {
namespace {

struct OnlineRow {
  std::string sampler;  // "full_rebuild", "incremental", or "pure_decay"
  int threads = 1;
  double batches_per_sec = 0.0;
  double records_per_sec = 0.0;
};

struct Workload {
  std::vector<std::vector<TokenizedRecord>> stream;
};

/// One timed run over the shared stream. Warm-up ingests bootstrap the
/// unit catalogue and edge store so the timed section measures the
/// steady-state decay -> refresh -> re-embed cycle, not cold growth.
OnlineRow MeasureIngest(const Workload& work, int32_t dim, bool incremental,
                        int threads) {
  OnlineRow row;
  row.sampler = incremental ? "incremental" : "full_rebuild";
  row.threads = threads;

  OnlineActorOptions options;
  options.dim = dim;
  options.decay_per_batch = 0.7;
  options.samples_per_edge_per_batch = 3.0;
  options.incremental_sampler = incremental;
  options.num_threads = threads;
  auto model = OnlineActor::Create(options);
  if (!model.ok()) {
    std::fprintf(stderr, "create: %s\n", model.status().ToString().c_str());
    return row;
  }
  const int batches = static_cast<int>(work.stream.size());
  const int warm = batches / 3;
  std::size_t timed_records = 0;
  for (int i = 0; i < warm; ++i) {
    if (auto st = model->Ingest(work.stream[i]); !st.ok()) {
      std::fprintf(stderr, "ingest: %s\n", st.ToString().c_str());
      return row;
    }
  }
  Stopwatch timer;
  for (int i = warm; i < batches; ++i) {
    if (auto st = model->Ingest(work.stream[i]); !st.ok()) {
      std::fprintf(stderr, "ingest: %s\n", st.ToString().c_str());
      return row;
    }
    timed_records += work.stream[i].size();
  }
  const double secs = timer.ElapsedSeconds();
  if (secs > 0.0) {
    row.batches_per_sec = static_cast<double>(batches - warm) / secs;
    row.records_per_sec = static_cast<double>(timed_records) / secs;
  }
  return row;
}

/// Times `ticks` empty Ingest() calls — sparse-stream mode, where a time
/// slice passes with no observations. The full stream is ingested first so
/// the decay ticks run against a realistic edge population. Each tick is
/// decay + training, plus a sampler rebuild for every edge store whose
/// decay dropped an edge (uniform decay alone keeps the cached samplers
/// exact); the contrast with the incremental rows is the cost of the
/// accumulate phase and the rebuilds decay does not trigger.
/// records_per_sec stays 0 — a decay tick carries no records.
OnlineRow MeasurePureDecay(const Workload& work, int32_t dim, int threads,
                           int ticks) {
  OnlineRow row;
  row.sampler = "pure_decay";
  row.threads = threads;

  OnlineActorOptions options;
  options.dim = dim;
  options.decay_per_batch = 0.7;
  options.samples_per_edge_per_batch = 3.0;
  options.incremental_sampler = true;
  options.num_threads = threads;
  auto model = OnlineActor::Create(options);
  if (!model.ok()) {
    std::fprintf(stderr, "create: %s\n", model.status().ToString().c_str());
    return row;
  }
  for (const auto& batch : work.stream) {
    if (auto st = model->Ingest(batch); !st.ok()) {
      std::fprintf(stderr, "ingest: %s\n", st.ToString().c_str());
      return row;
    }
  }
  Stopwatch timer;
  for (int i = 0; i < ticks; ++i) {
    if (auto st = model->Ingest({}); !st.ok()) {
      std::fprintf(stderr, "decay tick: %s\n", st.ToString().c_str());
      return row;
    }
  }
  const double secs = timer.ElapsedSeconds();
  if (secs > 0.0) {
    row.batches_per_sec = static_cast<double>(ticks) / secs;
  }
  return row;
}

struct ShardRow {
  int shards = 1;
  double batches_per_sec = 0.0;
  double records_per_sec = 0.0;
};

/// The sharding section's ingest side: the ownership-partitioned trainer
/// at S shards, one worker per shard on a persistent pool. On a 1-core
/// container the parallel shard epochs serialize, so shards > 1 mostly
/// measures partitioning + remote-tile-refresh overhead rather than
/// speedup — docs/sharding.md spells out the caveat; compare the column
/// across commits, not across shard counts, unless the machine has the
/// cores.
ShardRow MeasureShardedIngest(const Workload& work, int32_t dim,
                              int shards) {
  ShardRow row;
  row.shards = shards;

  ThreadPool pool(shards);
  OnlineActorOptions options;
  options.dim = dim;
  options.decay_per_batch = 0.7;
  options.samples_per_edge_per_batch = 3.0;
  options.num_shards = shards;
  options.num_threads = shards;
  options.pool = shards > 1 ? &pool : nullptr;
  auto model = OnlineActor::Create(options);
  if (!model.ok()) {
    std::fprintf(stderr, "create: %s\n", model.status().ToString().c_str());
    return row;
  }
  const int batches = static_cast<int>(work.stream.size());
  const int warm = batches / 3;
  std::size_t timed_records = 0;
  for (int i = 0; i < warm; ++i) {
    if (auto st = model->Ingest(work.stream[i]); !st.ok()) {
      std::fprintf(stderr, "ingest: %s\n", st.ToString().c_str());
      return row;
    }
  }
  Stopwatch timer;
  for (int i = warm; i < batches; ++i) {
    if (auto st = model->Ingest(work.stream[i]); !st.ok()) {
      std::fprintf(stderr, "ingest: %s\n", st.ToString().c_str());
      return row;
    }
    timed_records += work.stream[i].size();
  }
  const double secs = timer.ElapsedSeconds();
  if (secs > 0.0) {
    row.batches_per_sec = static_cast<double>(batches - warm) / secs;
    row.records_per_sec = static_cast<double>(timed_records) / secs;
  }
  return row;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int records = static_cast<int>(flags.GetInt("records", 12000));
  const int batches = static_cast<int>(flags.GetInt("batches", 12));
  const int32_t dim = static_cast<int32_t>(flags.GetInt("dim", 32));
  // Number of timed empty-Ingest ticks for the pure-decay column; 0
  // disables the column. Kept modest by default: with decay 0.7/batch the
  // edge set thins as ticks accumulate, and the column should measure the
  // well-populated regime.
  const int decay_ticks =
      static_cast<int>(flags.GetInt("pure_decay_ticks", 6));
  const std::string out_path = flags.GetString("out", "BENCH_online.json");
  if (records < batches || batches < 3 || dim < 1 || decay_ticks < 0) {
    std::fprintf(stderr,
                 "invalid flags: --records=%d --batches=%d --dim=%d "
                 "--pure_decay_ticks=%d (need records >= batches >= 3, "
                 "dim >= 1, ticks >= 0)\n",
                 records, batches, dim, decay_ticks);
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
  auto ds = GenerateSynthetic(config, "online-throughput");
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
  Workload work;
  work.stream.resize(static_cast<std::size_t>(batches));
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    work.stream[i * static_cast<std::size_t>(batches) / corpus->size()]
        .push_back(corpus->record(i));
  }

  std::vector<OnlineRow> rows;
  rows.push_back(MeasureIngest(work, dim, /*incremental=*/false, 1));
  for (int threads : {1, 2, 4, 8}) {
    rows.push_back(MeasureIngest(work, dim, /*incremental=*/true, threads));
  }
  if (decay_ticks > 0) {
    rows.push_back(MeasurePureDecay(work, dim, /*threads=*/1, decay_ticks));
  }
  for (const auto& row : rows) {
    std::printf("sampler=%-12s threads=%d  %.3f batches/s  %.1f records/s\n",
                row.sampler.c_str(), row.threads, row.batches_per_sec,
                row.records_per_sec);
  }

  std::vector<ShardRow> shard_rows;
  for (int shards : {1, 2, 4}) {
    shard_rows.push_back(MeasureShardedIngest(work, dim, shards));
    const ShardRow& row = shard_rows.back();
    std::printf("sharded ingest shards=%d  %.3f batches/s  %.1f records/s\n",
                row.shards, row.batches_per_sec, row.records_per_sec);
  }

  auto find = [&rows](const std::string& sampler, int threads) {
    for (const auto& r : rows) {
      if (r.sampler == sampler && r.threads == threads) {
        return r.batches_per_sec;
      }
    }
    return 0.0;
  };
  const double full1 = find("full_rebuild", 1);
  const double inc1 = find("incremental", 1);
  const double inc8 = find("incremental", 8);
  const double decay1 = find("pure_decay", 1);
  const double incremental_speedup = full1 > 0.0 ? inc1 / full1 : 0.0;
  const double thread_speedup = inc1 > 0.0 ? inc8 / inc1 : 0.0;
  const double pure_decay_speedup = inc1 > 0.0 ? decay1 / inc1 : 0.0;

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  out << "{\n";
  out << "  \"bench\": \"online_throughput\",\n";
  out << "  \"records\": " << records << ",\n";
  out << "  \"batches\": " << batches << ",\n";
  out << "  \"dim\": " << dim << ",\n";
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"simd_available\": " << (Avx2Available() ? "true" : "false")
      << ",\n";
  char buf[160];
  out << "  \"throughput\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"sampler\": \"%s\", \"threads\": %d, "
                  "\"batches_per_sec\": %.3f, \"records_per_sec\": %.1f}%s\n",
                  rows[i].sampler.c_str(), rows[i].threads,
                  rows[i].batches_per_sec, rows[i].records_per_sec,
                  i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
  out << "  \"sharding\": [\n";
  for (std::size_t i = 0; i < shard_rows.size(); ++i) {
    std::snprintf(buf, sizeof(buf),
                  "    {\"shards\": %d, \"batches_per_sec\": %.3f, "
                  "\"records_per_sec\": %.1f}%s\n",
                  shard_rows[i].shards, shard_rows[i].batches_per_sec,
                  shard_rows[i].records_per_sec,
                  i + 1 < shard_rows.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"incremental_sampler_speedup_1t\": %.3f,\n",
                incremental_speedup);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"thread_speedup_8t_vs_1t\": %.3f,\n", thread_speedup);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "  \"pure_decay_speedup_vs_ingest_1t\": %.3f\n",
                pure_decay_speedup);
  out << buf;
  out << "}\n";
  out.flush();
  if (!out) {
    std::fprintf(stderr, "write to %s failed\n", out_path.c_str());
    return 1;
  }
  std::printf(
      "wrote %s (incremental x%.2f at 1 thread, threads x%.2f at 8 vs 1)\n",
      out_path.c_str(), incremental_speedup, thread_speedup);
  return 0;
}

}  // namespace
}  // namespace actor

int main(int argc, char** argv) { return actor::Main(argc, argv); }
