// Streaming ingest-throughput harness: times the full OnlineActor
// Ingest() cycle (decay -> resolve -> accumulate -> sampler refresh ->
// re-embed) on a synthetic activity stream and emits BENCH_online.json so
// the streaming path's perf trajectory is tracked across PRs, alongside
// BENCH_sgd.json for the batch trainer.
//
// Rows: the incremental ingest path (samplers rebuilt in place only when
// their edge store changed) and the sparse-stream pure-decay column (empty
// Ingest() ticks, where the version-stamped sampler cache skips the
// rebuild of every edge store whose decay dropped no edge). Each row is
// the median of kRepeats runs on fresh models. See EXPERIMENTS.md for the
// machine-drift caveat before comparing against committed numbers.
//
// Usage: online_throughput [--records=12000] [--batches=12] [--dim=32]
//                          [--pure_decay_ticks=6] [--out=BENCH_online.json]

#include <algorithm>
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
#include "util/vec_math.h"

namespace actor {
namespace {

struct OnlineRow {
  std::string sampler;  // "incremental" or "pure_decay"
  double batches_per_sec = 0.0;
  double records_per_sec = 0.0;
};

struct Workload {
  std::vector<std::vector<TokenizedRecord>> stream;
};

/// Runs per row. One pass is too short to time once, so each row repeats
/// its run on kRepeats fresh models (identical bits each time) and reports
/// the median rate.
constexpr int kRepeats = 7;

OnlineActorOptions BenchOptions(int32_t dim) {
  OnlineActorOptions options;
  options.dim = dim;
  options.decay_per_batch = 0.7;
  options.samples_per_edge_per_batch = 3.0;
  return options;
}

/// Ingests work.stream[0, first) untimed, then times `timed` calls of
/// `tick(model)`; returns the seconds, or a negative value on error.
template <typename Tick>
double TimeRun(const Workload& work, int32_t dim, std::size_t first,
               int timed, Tick&& tick) {
  auto model = OnlineActor::Create(BenchOptions(dim));
  if (!model.ok()) {
    std::fprintf(stderr, "create: %s\n", model.status().ToString().c_str());
    return -1.0;
  }
  for (std::size_t i = 0; i < first; ++i) {
    if (auto st = model->Ingest(work.stream[i]); !st.ok()) {
      std::fprintf(stderr, "ingest: %s\n", st.ToString().c_str());
      return -1.0;
    }
  }
  Stopwatch timer;
  for (int i = 0; i < timed; ++i) {
    if (auto st = tick(*model, i); !st.ok()) {
      std::fprintf(stderr, "timed ingest: %s\n", st.ToString().c_str());
      return -1.0;
    }
  }
  return timer.ElapsedSeconds();
}

/// The median of kRepeats TimeRun times; 0 on error.
template <typename Tick>
double MedianSeconds(const Workload& work, int32_t dim, std::size_t first,
                     int timed, Tick&& tick) {
  std::vector<double> secs;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    secs.push_back(TimeRun(work, dim, first, timed, tick));
    if (secs.back() < 0.0) return 0.0;
  }
  std::sort(secs.begin(), secs.end());
  return secs[secs.size() / 2];
}

/// The steady-state ingest cycle: warm-up ingests bootstrap the unit
/// catalogue and edge store so the timed section measures the
/// decay -> refresh -> re-embed cycle, not cold growth.
OnlineRow MeasureIngest(const Workload& work, int32_t dim) {
  OnlineRow row;
  row.sampler = "incremental";
  const std::size_t warm = work.stream.size() / 3;
  const int timed = static_cast<int>(work.stream.size() - warm);
  std::size_t timed_records = 0;
  for (std::size_t i = warm; i < work.stream.size(); ++i) {
    timed_records += work.stream[i].size();
  }
  auto ingest = [&work, warm](OnlineActor& model, int i) {
    return model.Ingest(work.stream[warm + static_cast<std::size_t>(i)]);
  };
  const double secs = MedianSeconds(work, dim, warm, timed, ingest);
  if (secs > 0.0) {
    row.batches_per_sec = timed / secs;
    row.records_per_sec = static_cast<double>(timed_records) / secs;
  }
  return row;
}

/// Times `ticks` empty Ingest() calls — sparse-stream mode, where a time
/// slice passes with no observations. The full stream is ingested first so
/// the decay ticks run against a realistic edge population. Each tick is
/// decay + training, plus a sampler rebuild for every edge store whose
/// decay dropped an edge (uniform decay alone keeps the cached samplers
/// exact); the contrast with the incremental row is the cost of the
/// accumulate phase and the rebuilds decay does not trigger.
/// records_per_sec stays 0 — a decay tick carries no records.
OnlineRow MeasurePureDecay(const Workload& work, int32_t dim, int ticks) {
  OnlineRow row;
  row.sampler = "pure_decay";
  const double secs =
      MedianSeconds(work, dim, work.stream.size(), ticks,
                    [](OnlineActor& model, int) { return model.Ingest({}); });
  if (secs > 0.0) row.batches_per_sec = ticks / secs;
  return row;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int records = static_cast<int>(flags.GetInt("records", 12000));
  const int batches = static_cast<int>(flags.GetInt("batches", 12));
  const int32_t dim = static_cast<int32_t>(flags.GetInt("dim", 32));
  // Number of timed empty-Ingest ticks per pure-decay repeat; 0 disables
  // the column. Kept modest by default: with decay 0.7/batch the edge set
  // thins as ticks accumulate, and the column should measure the
  // well-populated regime (the repeats, not more ticks, steady the row).
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
  rows.push_back(MeasureIngest(work, dim));
  if (decay_ticks > 0) {
    rows.push_back(MeasurePureDecay(work, dim, decay_ticks));
  }
  for (const auto& row : rows) {
    std::printf("sampler=%-12s  %.3f batches/s  %.1f records/s\n",
                row.sampler.c_str(), row.batches_per_sec,
                row.records_per_sec);
  }

  auto find = [&rows](const std::string& sampler) {
    for (const auto& r : rows) {
      if (r.sampler == sampler) return r.batches_per_sec;
    }
    return 0.0;
  };
  const double inc1 = find("incremental");
  const double decay1 = find("pure_decay");
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
                  "    {\"sampler\": \"%s\", "
                  "\"batches_per_sec\": %.3f, \"records_per_sec\": %.1f}%s\n",
                  rows[i].sampler.c_str(), rows[i].batches_per_sec,
                  rows[i].records_per_sec, i + 1 < rows.size() ? "," : "");
    out << buf;
  }
  out << "  ],\n";
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
  std::printf("wrote %s (pure decay x%.2f)\n", out_path.c_str(),
              pure_decay_speedup);
  return 0;
}

}  // namespace
}  // namespace actor

int main(int argc, char** argv) { return actor::Main(argc, argv); }
