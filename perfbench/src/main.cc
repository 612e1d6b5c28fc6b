// actor_perfbench: one workload run of the ingest -> serve -> batch loop.
//
//   actor_perfbench --workload shifting_city --seed 7 --seconds 30 --trace 0
//                   [--trace_out spans.jsonl]
//
// Prints a human-readable report, then as its last line
//   RESULT {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits nonzero when an operation fails or an output check
// does not hold. perfbench/run.py builds this program and wraps it.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "loop.h"

namespace perfbench {
namespace {

/// The phases run interleaved in this many rounds: the box's speed drifts
/// over seconds, and interleaving lets every metric sample the whole run.
constexpr int kRounds = 5;
constexpr int kBatchRound = kRounds / 2;  // the one batch job runs mid-run

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* out, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "missing value for " + key;
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      out->workload = value;
    } else if (key == "--seed") {
      out->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      out->seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      out->trace = value == "1";
      if (value != "0" && value != "1") end = value.data();
    } else if (key == "--trace_out") {
      out->trace_out = value;
    } else {
      *error = "unknown flag " + key;
      return false;
    }
    if (end != nullptr && *end != '\0') {
      *error = "bad value for " + key + ": " + value;
      return false;
    }
  }
  if (out->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintResult(const Outcome& outcome, const Metrics& metrics) {
  std::printf("RESULT {\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              outcome.check_failures() == 0 && outcome.failed() == 0 ? "true"
                                                                     : "false",
              static_cast<long long>(outcome.attempted()),
              static_cast<long long>(outcome.failed()));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  RunConfig config;
  if (!ParseArgs(argc, argv, &args, &error) ||
      !MakeConfig(args.workload, args.seed, args.seconds, args.trace, &config,
                  &error)) {
    std::fprintf(stderr, "actor_perfbench: %s\n", error.c_str());
    return 2;
  }
  Tracer tracer(config.trace);
  SpanLog* log = tracer.NewLog("main");
  Outcome outcome;
  Metrics e2e, layer;

  const int64_t gen_start = NowNs();
  const Inputs inputs = GenerateInputs(config, log, &outcome);
  const double generate_s = static_cast<double>(NowNs() - gen_start) * 1e-9;

  // Each timed thread runs on a CPU of its own, the single-threaded phases
  // on the fastest, with the CPUs ranked afresh every round (cpus.cc).
  const std::vector<int> cpus = AllowedCpus();
  std::vector<int> ranked = RankCpus(cpus);
  PinTo(ranked, 0, 1);

  // The run uses the first set-up's models. The remaining set-ups repeat
  // the same work, one per round, and are discarded: spread over the run,
  // their median is not at the mercy of one stretch of host speed.
  Prepared prepared;
  std::vector<double> setup_s;
  auto set_up = [&](Prepared* out) {
    const double gauge_ms = GaugeMs();
    setup_s.push_back(
        AtReferenceSpeed(Setup(inputs, log, &outcome, out), gauge_ms));
  };
  if (outcome.check_failures() == 0) set_up(&prepared);
  const bool ready = outcome.check_failures() == 0 &&
                     prepared.stream_model != nullptr &&
                     prepared.serve_model != nullptr;
  if (ready) {
    StreamPhase stream(config, inputs, prepared.stream_model.get(), log,
                       &outcome);
    ServePhase serve(config, inputs, prepared.serve_model.get(), &tracer,
                     &outcome);
    BatchPhase batch(config, &prepared.batch, log, &outcome);
    const int per_round = (config.stream_batches + kRounds - 1) / kRounds;
    for (int r = 0; r < kRounds; ++r) {
      if (r > 0) ranked = RankCpus(cpus);
      PinTo(ranked, 0, 1);
      stream.Run(per_round);
      for (int rep = r + 1; rep < config.setup_reps; rep += kRounds) {
        Prepared discarded;
        set_up(&discarded);
      }
      serve.RunRound(r, kRounds, ranked);
      if (r == kBatchRound) {
        PinTo(ranked, 0, kTrainThreads);  // the job's pool inherits the mask
        batch.RunJob();
      }
    }
    stream.Finish(&tracer, &e2e, &layer);
    serve.Finish(&e2e, &layer);
    batch.Finish(&tracer, &e2e, &layer);
  }
  e2e.insert(e2e.begin(), {"setup_s", Median(setup_s), "s"});
  e2e.insert(e2e.begin() + 1, {"peak_rss_mb", PeakRssMb(), "MB"});

  if (tracer.enabled()) {
    const std::vector<SpanView> spans = tracer.Collect();
    layer.push_back({"data.generate_s", generate_s, "s"});
    std::vector<double> tokenize = Durations(spans, "data.tokenize");
    layer.push_back({"data.tokenize_s", Median(tokenize), "s"});
    // Tracing cost: spans recorded times the measured cost of one, as a
    // share of the traced work (root spans of every thread). Comparing with
    // a separate untraced run would be drowned by the box's run-to-run
    // drift, which is far larger.
    double traced_s = 0.0;
    for (const SpanView& v : spans) {
      if (v.parent == nullptr) traced_s += v.duration_s;
    }
    layer.push_back({"trace.overhead_pct",
                     traced_s > 0.0 ? 100.0 * static_cast<double>(spans.size()) *
                                          SpanCostNs() * 1e-9 / traced_s
                                    : 0.0,
                     "%"});
    PrintSelfTimeReport(spans);
    if (!args.trace_out.empty() && !tracer.WriteJsonLines(args.trace_out)) {
      outcome.CheckFailed("cannot write " + args.trace_out);
    }
  }

  std::printf("workload=%s seed=%llu seconds=%g stream_batches=%d "
              "window_s=%g batch_scale=%g\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.stream_batches, config.window_s,
              config.batch_scale);
  for (const Metric& m : e2e) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : layer) {
    std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& m : outcome.messages()) {
    std::fprintf(stderr, "check failed: %s\n", m.c_str());
  }
  PrintResult(outcome, config.trace ? layer : e2e);
  std::fflush(stdout);
  return outcome.check_failures() == 0 && outcome.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
