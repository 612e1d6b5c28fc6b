#ifndef PERFBENCH_LOOP_H_
#define PERFBENCH_LOOP_H_

// The three phases every workload run goes through — closed-loop streaming
// ingest, open-loop serving beside a live writer, and the batch ACTOR job —
// plus the run configuration and the result accounting they share.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/actor.h"
#include "core/online_actor.h"
#include "data/corpus.h"
#include "data/synthetic.h"
#include "eval/pipeline.h"
#include "eval/prediction.h"
#include "trace.h"

namespace perfbench {

/// Everything a run does is a function of (workload, seed, seconds): the
/// same triple gives the same inputs and the same amount of work.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;

  /// The workload's axis: how many empty ingest ticks (pure-decay time
  /// slices) follow each batch of records. 0 is a dense stream.
  int quiet_ticks = 0;

  // Derived from `seconds` (see MakeConfig).
  int stream_batches = 0;       // timed ingest steps, empty ticks included
  int setup_reps = 6;           // set-ups per run; setup_s is their median
  double window_s = 1.0;        // one open-loop measurement window
  double batch_scale = 2.0;     // UTGEO-like preset scale of the batch job
};

/// Returns false (with a message) for an unknown workload or bad numbers.
bool MakeConfig(const std::string& workload, uint64_t seed, double seconds,
                bool trace, RunConfig* out, std::string* error);

/// Derives an independent 64-bit seed for one input stream of the run.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Operation and output-check accounting. A failed check marks the run
/// incorrect; the process then exits nonzero.
class Outcome {
 public:
  void Attempt(int64_t n = 1) { attempted_ += n; }
  void Fail(int64_t n = 1) { failed_ += n; }
  /// Records a failed output check (kept to the first few messages).
  void CheckFailed(const std::string& what);
  bool Check(bool ok, const std::string& what) {
    if (!ok) CheckFailed(what);
    return ok;
  }
  void Merge(const Outcome& other);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  int64_t check_failures() const { return check_failures_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  int64_t check_failures_ = 0;
  std::vector<std::string> messages_;
};

/// Named metrics in emission order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Generated inputs. The library sees only these.
struct Inputs {
  /// The ingest ticks: 1000-record batches, and empty ones on a sparse
  /// stream. Tick 0 is the warm-up, 1..stream_batches are timed.
  std::vector<std::vector<actor::TokenizedRecord>> stream;
  /// Default-scale stream for the serving model: the first half warms it,
  /// the live writer cycles through the second half.
  std::vector<std::vector<actor::TokenizedRecord>> serve_head;
  std::vector<std::vector<actor::TokenizedRecord>> serve_tail;
  /// Raw UTGEO-like corpus of the batch job (tokenized during set-up).
  actor::Corpus batch_raw;
  actor::PipelineOptions batch_options;
};

Inputs GenerateInputs(const RunConfig& config, SpanLog* log, Outcome* outcome);

/// The models and prepared data a set-up produces.
struct Prepared {
  std::unique_ptr<actor::OnlineActor> stream_model;
  std::unique_ptr<actor::OnlineActor> serve_model;
  actor::PreparedDataset batch;
};

/// One set-up: create + warm up + first publish of both streaming models,
/// and tokenize + split of the batch corpus. Returns its wall time.
double Setup(const Inputs& inputs, SpanLog* log, Outcome* outcome,
             Prepared* out);

/// Closed-loop ingest of the timed stream batches, with prequential scoring
/// of each batch before it is ingested.
class StreamPhase {
 public:
  StreamPhase(const RunConfig& config, const Inputs& inputs,
              actor::OnlineActor* model, SpanLog* log, Outcome* outcome);
  /// Ingests the next `batches` timed batches (fewer at the stream's end).
  void Run(int batches);
  void Finish(Tracer* tracer, Metrics* e2e, Metrics* layer);

 private:
  const RunConfig& config_;
  const Inputs& inputs_;
  actor::OnlineActor* model_;
  SpanLog* log_;
  Outcome* outcome_;
  std::size_t next_ = 1;  // batch 0 is the set-up's warm-up
  uint64_t last_version_ = 0;
  std::vector<double> step_ms_;       // as measured
  std::vector<double> reference_ms_;  // at the reference speed
  std::vector<double> gauge_ms_;
  double mrr_sum_ = 0.0;
  int mrr_batches_ = 0;
  int64_t records_ = 0;
  int64_t decay_ticks_ = 0;
  int64_t decay_rebuilds_ = 0;
};

/// Open-loop readers at fixed rates and a search for the sustainable rate,
/// while a writer ingests and publishes on its own cadence.
class ServePhase {
 public:
  ServePhase(const RunConfig& config, const Inputs& inputs,
             actor::OnlineActor* model, Tracer* tracer, Outcome* outcome);
  ~ServePhase();
  ServePhase(const ServePhase&) = delete;
  ServePhase& operator=(const ServePhase&) = delete;

  /// One round with the writer live: a base-rate window, a loaded-rate
  /// window and, in traced runs, the next steps of the sustainable-rate
  /// search. The writer runs on the fastest of `ranked_cpus`, the readers
  /// on the others.
  void RunRound(int round, int rounds, const std::vector<int>& ranked_cpus);
  void Finish(Metrics* e2e, Metrics* layer);

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Trainer threads of the batch job.
inline constexpr std::size_t kTrainThreads = 2;

/// The batch job, run once: hotspots -> graphs -> TrainActor -> publish,
/// then the Table 2 row.
class BatchPhase {
 public:
  BatchPhase(const RunConfig& config, actor::PreparedDataset* data,
             SpanLog* log, Outcome* outcome)
      : config_(config), data_(data), log_(log), outcome_(outcome) {}
  void RunJob();
  void Finish(Tracer* tracer, Metrics* e2e, Metrics* layer);

 private:
  const RunConfig& config_;
  actor::PreparedDataset* data_;
  SpanLog* log_;
  Outcome* outcome_;
  bool done_ = false;
  double train_s_ = 0.0;
  actor::MrrScores mrr_;
  actor::ActorStats stats_;
};

/// The CPUs the process may run on (cpus.cc).
std::vector<int> AllowedCpus();
/// `allowed` ordered fastest first, by a short fixed loop on each.
std::vector<int> RankCpus(const std::vector<int>& allowed);
/// Restricts the calling thread, and the threads it creates from now on, to
/// ranked[first, first + count), or to all of `ranked` when that range is
/// empty (a machine with fewer CPUs).
void PinTo(const std::vector<int>& ranked, std::size_t first,
           std::size_t count);

/// Wall time of the speed gauge (cpus.cc) on the calling thread's CPU.
double GaugeMs();

/// The gauge's time at the reference speed: about its median on the 4-vCPU
/// box the benchmark landed on.
inline constexpr double kGaugeReferenceMs = 16.0;

/// The end-to-end timings are given at the reference speed: a time measured
/// while the gauge took `gauge_ms` is scaled by kGaugeReferenceMs / gauge_ms,
/// so a host running at half speed does not read as a slower program.
inline double AtReferenceSpeed(double elapsed, double gauge_ms) {
  return gauge_ms > 0.0 ? elapsed * kGaugeReferenceMs / gauge_ms : elapsed;
}

/// q-quantile (nearest rank) of `values`; 0 when empty. Sorts in place.
double Quantile(std::vector<double>* values, double q);
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_LOOP_H_
