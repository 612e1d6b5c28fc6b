// Open-loop serving beside a live writer.
//
// Readers draw Poisson arrivals and charge every request from its scheduled
// arrival, so a stall shows up in the tail instead of slowing the schedule
// down. On each wake a reader acquires the current snapshot and drains up to
// kMaxBatch due requests into one QueryEngine::QueryBatch. A writer thread
// ingests and publishes one batch every kWriterPeriodS on its own schedule,
// and runs the speed gauge while it waits for the next one.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "loop.h"
#include "serve/query_engine.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kReaders = 2;
constexpr std::size_t kMaxBatch = 8;
constexpr int kTopK = 10;
constexpr double kBaseQps = 2000.0;
/// About half the sustainable rate measured when the benchmark landed
/// (README.md), fixed so that runs of later commits stay comparable.
constexpr double kLoadedQps = 56000.0;
constexpr double kSloP99Ms = 20.0;
constexpr double kWriterPeriodS = 0.5;
/// The writer's first batch is due this long after the round starts, time
/// for its first run of the gauge.
constexpr int64_t kWriterLeadNs = 50'000'000;
constexpr int kMaxProbes = 10;
constexpr int kFixedWindows = 5;  // windows per fixed rate
constexpr int kProbeWindows = 3;  // windows per probed rate
/// A fixed-rate window lasts this share of RunConfig::window_s, a probe
/// window this one.
constexpr double kFixedShare = 0.75;
constexpr double kProbeShare = 0.3;
constexpr char kMix[] = "lhkv";  // location, hour, keyword vector, vector

/// Below this much remaining wait a reader spins instead of sleeping: a
/// sleep overshoots by tens of microseconds, more than a query costs.
constexpr int64_t kSpinNs = 250'000;

void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

void WaitUntil(int64_t due_ns) {
  int64_t left = due_ns - NowNs();
  if (left > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpinNs));
  }
  while (NowNs() < due_ns) CpuRelax();
}

/// Request material resolved once from the warm-up snapshot. Unit ids stay
/// valid in every later snapshot (the online unit space only grows).
struct RequestPool {
  std::vector<actor::GeoPoint> probes;
  std::vector<actor::VertexId> word_units;
  int32_t num_units = 0;
};

void MakeRequest(const actor::QueryEngine& engine, const RequestPool& pool,
                 int worker, uint64_t seq, std::vector<actor::BatchQuery>* out) {
  const actor::ChunkedMatrix& center = engine.snapshot().center();
  const uint64_t key = seq + static_cast<uint64_t>(worker) * 7919u;
  switch (kMix[key % (sizeof(kMix) - 1)]) {
    case 'l':
      out->push_back(actor::BatchQuery::Location(
          pool.probes[key % pool.probes.size()], actor::VertexType::kWord,
          kTopK));
      break;
    case 'h':
      out->push_back(actor::BatchQuery::Hour(static_cast<double>(key % 24),
                                             actor::VertexType::kLocation,
                                             kTopK));
      break;
    case 'k': {
      const actor::VertexId w = pool.word_units[key % pool.word_units.size()];
      out->push_back(actor::BatchQuery::Vector(
          center.row(w), actor::VertexType::kLocation, kTopK, w));
      break;
    }
    default: {
      const actor::VertexId q = static_cast<actor::VertexId>(
          (key * 31u) % static_cast<uint64_t>(pool.num_units));
      out->push_back(actor::BatchQuery::Vector(
          center.row(q), actor::VertexType::kWord, kTopK, q));
      break;
    }
  }
}

/// Output checks on one answer: k entries (or every unit of the type),
/// the requested type, finite similarities, similarity descending with
/// ties by ascending id.
bool CheckAnswer(const actor::Result<std::vector<actor::Neighbor>>& result,
                 const actor::BatchQuery& query,
                 const actor::ModelSnapshot& snap, std::string* why) {
  if (!result.ok()) {
    *why = "query failed: " + result.status().ToString();
    return false;
  }
  const std::vector<actor::Neighbor>& hits = result.ValueOrDie();
  std::size_t candidates = snap.VerticesOfType(query.result_type).size();
  if (query.exclude != actor::kInvalidVertex &&
      snap.vertex_type(query.exclude) == query.result_type) {
    --candidates;
  }
  const std::size_t expected =
      std::min(static_cast<std::size_t>(query.k), candidates);
  if (hits.size() != expected) {
    *why = "answer has " + std::to_string(hits.size()) + " entries, expected " +
           std::to_string(expected);
    return false;
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const actor::Neighbor& n = hits[i];
    if (n.vertex < 0 || n.vertex >= snap.num_units() ||
        n.type != query.result_type ||
        snap.vertex_type(n.vertex) != query.result_type) {
      *why = "answer entry of the wrong type or out of range";
      return false;
    }
    if (!std::isfinite(n.similarity)) {
      *why = "non-finite similarity";
      return false;
    }
    if (i > 0) {
      const actor::Neighbor& p = hits[i - 1];
      if (p.similarity < n.similarity ||
          (p.similarity == n.similarity && p.vertex >= n.vertex)) {
        *why = "answer not ordered by similarity, then id";
        return false;
      }
    }
  }
  return true;
}

enum class WindowKind { kBase, kLoaded, kProbe };

struct ReaderResult {
  std::vector<double> latency_ms;     // scheduled arrival -> answer
  std::vector<double> tail_latency_ms;  // requests due in the last quarter
  std::vector<double> queue_wait_ms;  // scheduled arrival -> sweep start
  std::vector<double> lateness_us;    // scheduled arrival -> reader awake
  std::vector<double> sweep_us;       // QueryBatch
  int64_t sweeps = 0;
  /// (version, answer time) the first time this reader answered on a new
  /// snapshot version.
  std::vector<std::pair<uint64_t, int64_t>> first_answer;
  Outcome outcome;
};

struct ReaderArgs {
  actor::OnlineActor* model;
  const RequestPool* pool;
  double rate_qps;  // this reader's share
  int64_t start_ns;
  int64_t end_ns;
  uint64_t seed;
  int worker;
  uint64_t window;
  SpanLog* log;
};

void RunReader(const ReaderArgs& a, ReaderResult* out) {
  actor::Rng rng(a.seed);
  const double mean_gap_ns = 1e9 / a.rate_qps;
  auto gap = [&] {
    return std::max<int64_t>(1, static_cast<int64_t>(rng.Exponential() *
                                                     mean_gap_ns));
  };
  const int64_t tail_from = a.end_ns - (a.end_ns - a.start_ns) / 4;
  const std::size_t expected =
      static_cast<std::size_t>(a.rate_qps * 1e-9 *
                               static_cast<double>(a.end_ns - a.start_ns)) +
      64;
  out->latency_ms.reserve(expected);
  out->queue_wait_ms.reserve(expected);
  std::vector<int64_t> due;
  std::vector<actor::BatchQuery> batch;
  uint64_t seq = 0;
  uint64_t last_version = 0;
  bool seen_any = false;
  std::string why;
  int64_t next = a.start_ns + gap();
  while (next < a.end_ns) {
    if (NowNs() < next) {
      WaitUntil(next);
      out->lateness_us.push_back(static_cast<double>(NowNs() - next) * 1e-3);
    }
    const uint64_t group = (a.window << 40) |
                           (static_cast<uint64_t>(a.worker) << 32) |
                           static_cast<uint64_t>(out->sweeps++);
    std::optional<actor::QueryEngine> engine;
    std::vector<actor::Result<std::vector<actor::Neighbor>>> answers;
    int64_t sweep_start = 0;
    due.clear();
    batch.clear();
    {
      ScopedSpan cycle(a.log, "loop.serve_cycle", group);
      {
        ScopedSpan s(a.log, "serve.acquire", group);
        auto snap = a.model->CurrentSnapshot();
        if (snap != nullptr) engine.emplace(std::move(snap));
      }
      const int64_t now = NowNs();
      while (due.size() < kMaxBatch && next <= now && next < a.end_ns) {
        due.push_back(next);
        if (engine) MakeRequest(*engine, *a.pool, a.worker, seq, &batch);
        ++seq;
        next += gap();
      }
      if (engine) {
        sweep_start = NowNs();
        ScopedSpan s(a.log, "serve.sweep", group);
        answers = engine->QueryBatch(batch);
      }
    }
    const int64_t done = NowNs();
    out->outcome.Attempt(static_cast<int64_t>(due.size()));
    if (!engine) {
      out->outcome.Fail(static_cast<int64_t>(due.size()));
      out->outcome.CheckFailed("no snapshot to serve from");
      continue;
    }
    out->sweep_us.push_back(static_cast<double>(done - sweep_start) * 1e-3);
    for (std::size_t i = 0; i < due.size(); ++i) {
      const double latency = static_cast<double>(done - due[i]) * 1e-6;
      out->latency_ms.push_back(latency);
      out->queue_wait_ms.push_back(static_cast<double>(sweep_start - due[i]) *
                                   1e-6);
      if (due[i] >= tail_from) out->tail_latency_ms.push_back(latency);
    }
    const actor::ModelSnapshot& snap = engine->snapshot();
    for (std::size_t i = 0; i < answers.size(); ++i) {
      if (!answers[i].ok()) out->outcome.Fail();
      if (!CheckAnswer(answers[i], batch[i], snap, &why)) {
        out->outcome.CheckFailed(why);
      }
    }
    const uint64_t version = snap.version();
    out->outcome.Check(!seen_any || version >= last_version,
                       "snapshot version went backwards");
    if (!seen_any || version > last_version) {
      out->first_answer.emplace_back(version, done);
    }
    seen_any = true;
    last_version = std::max(last_version, version);
  }
}

struct Window {
  double rate = 0.0;
  WindowKind kind = WindowKind::kBase;
  int round = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  ReaderResult merged;
  int64_t requests = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool pass = false;
};

struct WriterTick {
  int64_t scheduled_ns = 0;
  uint64_t version = 0;
  double lag_ms = 0.0;
  double gauge_ms = 0.0;  // the gauge on the writer's CPU before the batch
  int round = 0;
};

/// Ingests and publishes tail[i % size] for i = first_batch, ... at
/// start + (i - first_batch) * period until `stop`.
void RunWriter(actor::OnlineActor* model,
               const std::vector<std::vector<actor::TokenizedRecord>>& tail,
               int64_t start_ns, uint64_t first_batch,
               const std::atomic<bool>* stop, SpanLog* log,
               std::vector<WriterTick>* ticks, Outcome* outcome) {
  const int64_t period_ns = static_cast<int64_t>(kWriterPeriodS * 1e9);
  uint64_t last_version = ticks->empty() ? 0 : ticks->back().version;
  for (uint64_t i = first_batch;; ++i) {
    const int64_t scheduled =
        start_ns + static_cast<int64_t>(i - first_batch) * period_ns;
    const double gauge_ms = GaugeMs();
    while (!stop->load(std::memory_order_acquire) && NowNs() < scheduled) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<int64_t>(scheduled - NowNs(), 5'000'000)));
    }
    if (stop->load(std::memory_order_acquire)) return;
    WriterTick tick;
    tick.scheduled_ns = scheduled;
    tick.lag_ms = static_cast<double>(NowNs() - scheduled) * 1e-6;
    tick.gauge_ms = gauge_ms;
    actor::Status status;
    std::shared_ptr<const actor::ModelSnapshot> snap;
    {
      ScopedSpan s(log, "loop.writer_tick", i);
      {
        ScopedSpan c(log, "core.ingest", i);
        status = model->Ingest(tail[i % tail.size()]);
      }
      if (status.ok()) {
        ScopedSpan p(log, "serve.publish", i);
        snap = model->PublishSnapshot();
      }
    }
    outcome->Attempt(2);
    if (!outcome->Check(status.ok(), "writer Ingest: " + status.ToString()) ||
        !outcome->Check(snap != nullptr, "writer PublishSnapshot null")) {
      outcome->Fail();
      return;
    }
    outcome->Check(snap->version() > last_version,
                   "writer snapshot version did not advance");
    last_version = snap->version();
    tick.version = last_version;
    ticks->push_back(tick);
  }
}

/// Search for the sustainable rate: from the loaded rate, double (or halve)
/// until the outcome flips, then bisect geometrically to within 5 %.
struct RateSearch {
  double lo = 0.0;  // highest rate that held
  double hi = 0.0;  // lowest rate that did not
  int steps = 0;

  /// The next rate to try; 0 when the search is done.
  double Next() const {
    if (steps >= kMaxProbes) return 0.0;
    if (lo == 0.0 && hi == 0.0) return kLoadedQps;
    if (hi == 0.0) return lo * 2.0;
    if (lo == 0.0) return hi / 2.0;
    return hi / lo > 1.05 ? std::sqrt(lo * hi) : 0.0;
  }
  void Record(double rate, bool held) {
    ++steps;
    (held ? lo : hi) = rate;
  }
};

}  // namespace

struct ServePhase::State {
  const RunConfig* config;
  const Inputs* inputs;
  actor::OnlineActor* model;
  Tracer* tracer;
  Outcome* outcome;
  RequestPool pool;
  std::vector<Window> windows;
  std::vector<WriterTick> ticks;
  RateSearch search;
  int round = 0;
  bool ready = false;

  const Window& RunWindow(double rate, WindowKind kind);
  /// A rate holds when most of its windows pass: a host stall longer than
  /// the SLO fails one window, not the rate, while a rate above capacity
  /// builds a backlog in every window.
  bool Holds(double rate, WindowKind kind, int count) {
    int passed = 0;
    for (int i = 0; i < count; ++i) passed += RunWindow(rate, kind).pass;
    return 2 * passed > count;
  }
};

const Window& ServePhase::State::RunWindow(double rate, WindowKind kind) {
  const int64_t window_ns = static_cast<int64_t>(
      config->window_s *
      (kind == WindowKind::kProbe ? kProbeShare : kFixedShare) * 1e9);
  const uint64_t index = windows.size();
  Window w;
  w.rate = rate;
  w.kind = kind;
  w.round = round;
  std::vector<ReaderResult> results(kReaders);
  w.start_ns = NowNs() + 1'000'000;
  w.end_ns = w.start_ns + window_ns;
  {
    std::vector<std::jthread> readers;
    for (int r = 0; r < kReaders; ++r) {
      ReaderArgs args{model,
                      &pool,
                      rate / kReaders,
                      w.start_ns,
                      w.end_ns,
                      SubSeed(config->seed,
                              1000 + index * 16 + static_cast<uint64_t>(r)),
                      r,
                      index,
                      // Probe windows only decide pass/fail; leaving them
                      // untraced keeps the span file to the fixed rates.
                      kind == WindowKind::kProbe ? nullptr
                                                 : tracer->NewLog("reader")};
      readers.emplace_back(RunReader, args,
                           &results[static_cast<std::size_t>(r)]);
    }
  }  // joins the readers
  for (ReaderResult& r : results) {
    auto append = [](std::vector<double>* to, const std::vector<double>& v) {
      to->insert(to->end(), v.begin(), v.end());
    };
    append(&w.merged.latency_ms, r.latency_ms);
    append(&w.merged.tail_latency_ms, r.tail_latency_ms);
    append(&w.merged.queue_wait_ms, r.queue_wait_ms);
    append(&w.merged.lateness_us, r.lateness_us);
    append(&w.merged.sweep_us, r.sweep_us);
    w.merged.sweeps += r.sweeps;
    w.merged.first_answer.insert(w.merged.first_answer.end(),
                                 r.first_answer.begin(), r.first_answer.end());
    w.merged.outcome.Merge(r.outcome);
  }
  w.requests = static_cast<int64_t>(w.merged.latency_ms.size());
  std::vector<double> lat = w.merged.latency_ms;
  w.p50_ms = Quantile(&lat, 0.50);
  w.p99_ms = Quantile(&lat, 0.99);
  // Pass: no failures, p99 within the SLO, and no growing backlog (the
  // requests due in the window's last quarter are still answered well
  // inside the SLO).
  const double tail_p50 = Median(w.merged.tail_latency_ms);
  w.pass = w.requests > 0 && w.merged.outcome.failed() == 0 &&
           w.merged.outcome.check_failures() == 0 && w.p99_ms <= kSloP99Ms &&
           tail_p50 <= kSloP99Ms / 2;
  std::printf("serve window %2llu %-6s rate=%8.0f/s requests=%7lld "
              "p50=%.4fms p99=%.4fms tail_p50=%.4fms sweeps=%lld %s\n",
              static_cast<unsigned long long>(index),
              kind == WindowKind::kBase     ? "base"
              : kind == WindowKind::kLoaded ? "loaded"
                                            : "probe",
              rate, static_cast<long long>(w.requests), w.p50_ms, w.p99_ms,
              tail_p50, static_cast<long long>(w.merged.sweeps),
              w.pass ? "pass" : "FAIL");
  outcome->Merge(w.merged.outcome);
  windows.push_back(std::move(w));
  return windows.back();
}

ServePhase::ServePhase(const RunConfig& config, const Inputs& inputs,
                       actor::OnlineActor* model, Tracer* tracer,
                       Outcome* outcome)
    : state_(std::make_unique<State>()) {
  State& s = *state_;
  s.config = &config;
  s.inputs = &inputs;
  s.model = model;
  s.tracer = tracer;
  s.outcome = outcome;
  auto first = model->CurrentSnapshot();
  if (!outcome->Check(first != nullptr, "serving model has no snapshot")) {
    return;
  }
  for (const auto& batch : inputs.serve_head) {
    for (std::size_t i = 0; i < batch.size(); i += 16) {
      s.pool.probes.push_back(batch[i].location);
    }
  }
  s.pool.word_units = first->VerticesOfType(actor::VertexType::kWord);
  s.pool.num_units = first->num_units();
  s.ready = outcome->Check(!s.pool.probes.empty() &&
                               !s.pool.word_units.empty() &&
                               s.pool.num_units > 0,
                           "warm-up snapshot has no probes, words or units");
}

ServePhase::~ServePhase() = default;

void ServePhase::RunRound(int round, int rounds,
                          const std::vector<int>& ranked_cpus) {
  State& s = *state_;
  if (!s.ready) return;
  s.round = round;
  const std::size_t first_tick = s.ticks.size();
  std::atomic<bool> stop{false};
  Outcome writer_outcome;
  {
    // Threads inherit the creating thread's CPU mask.
    PinTo(ranked_cpus, 0, 1);
    std::jthread writer(RunWriter, s.model, std::cref(s.inputs->serve_tail),
                        NowNs() + kWriterLeadNs, s.ticks.size(), &stop,
                        s.tracer->NewLog("writer"), &s.ticks, &writer_outcome);
    PinTo(ranked_cpus, 1, kReaders + 1);
    s.RunWindow(kBaseQps, WindowKind::kBase);
    s.RunWindow(kLoadedQps, WindowKind::kLoaded);
    // The search feeds only per-layer metrics, so it runs in traced runs
    // only. It needs about six steps; the first round takes two and the
    // last one finishes it.
    const int steps = !s.config->trace        ? 0
                      : round == 0            ? 2
                      : round + 1 == rounds   ? kMaxProbes
                                              : 1;
    for (int i = 0; i < steps; ++i) {
      const double rate = s.search.Next();
      if (rate == 0.0) break;
      s.search.Record(rate, s.Holds(rate, WindowKind::kProbe, kProbeWindows));
    }
    stop.store(true, std::memory_order_release);
  }  // joins the writer
  for (std::size_t i = first_tick; i < s.ticks.size(); ++i) {
    s.ticks[i].round = round;
  }
  s.outcome->Merge(writer_outcome);
}

void ServePhase::Finish(Metrics* e2e, Metrics* layer) {
  State& s = *state_;
  const std::vector<Window>& windows = s.windows;
  auto pooled = [&](WindowKind kind, std::vector<double> ReaderResult::*field) {
    std::vector<double> v;
    for (const Window& w : windows) {
      if (w.kind != kind) continue;
      const std::vector<double>& src = w.merged.*field;
      v.insert(v.end(), src.begin(), src.end());
    }
    return v;
  };
  // Fixed-rate tails are the median of per-window p99s, which a window hit
  // by a host stall does not move.
  auto median_of = [&](WindowKind kind, double Window::*field) {
    std::vector<double> v;
    for (const Window& w : windows) {
      if (w.kind == kind) v.push_back(w.*field);
    }
    return Median(v);
  };
  s.outcome->Check(!s.config->trace || s.search.lo > 0.0,
                   "no probed rate met the SLO");

  // Freshness: a writer batch's scheduled time -> the first answer given on
  // a snapshot whose version includes it, for every batch answered within
  // its own round, at the reference speed of the writer's CPU. A batch
  // published after its round's last window is left out: its first answer
  // would come a whole ingest phase later.
  std::vector<double> freshness_ms, raw_freshness_ms, lag_ms;
  for (const WriterTick& t : s.ticks) {
    lag_ms.push_back(t.lag_ms);
    int64_t first = -1;
    for (const Window& w : windows) {
      if (w.round != t.round) continue;
      for (const auto& [version, done] : w.merged.first_answer) {
        if (version >= t.version && (first < 0 || done < first)) first = done;
      }
    }
    if (first >= 0) {
      const double ms = static_cast<double>(first - t.scheduled_ns) * 1e-6;
      raw_freshness_ms.push_back(ms);
      freshness_ms.push_back(AtReferenceSpeed(ms, t.gauge_ms));
    }
  }
  s.outcome->Check(!freshness_ms.empty(),
                   "no writer batch was ever answered on");
  e2e->push_back({"freshness_p50_ms", Median(freshness_ms), "ms"});
  std::printf("freshness as measured: p50 %.3f ms\n",
              Median(raw_freshness_ms));

  // The generator must run ahead of the server: median lateness below the
  // median sweep, at both fixed rates.
  for (WindowKind kind : {WindowKind::kBase, WindowKind::kLoaded}) {
    const double late = Median(pooled(kind, &ReaderResult::lateness_us));
    const double sweep = Median(pooled(kind, &ReaderResult::sweep_us));
    std::printf("serve %s rate: generator lateness p50 %.3f us, sweep p50 "
                "%.3f us\n",
                kind == WindowKind::kBase ? "base" : "loaded", late, sweep);
    s.outcome->Check(late < sweep,
                     "generator lateness " + std::to_string(late) +
                         " us >= median sweep " + std::to_string(sweep) +
                         " us at " +
                         (kind == WindowKind::kBase ? "base" : "loaded") +
                         " rate");
  }
  Outcome totals;
  for (const Window& w : windows) totals.Merge(w.merged.outcome);
  std::printf("serve: windows=%zu writer_batches=%zu freshness_samples=%zu "
              "sustainable=%.0f/s requests=%lld\n",
              windows.size(), s.ticks.size(), freshness_ms.size(), s.search.lo,
              static_cast<long long>(totals.attempted()));

  if (!s.tracer->enabled()) return;
  const std::vector<SpanView> spans = s.tracer->Collect();
  std::vector<double> acquire_us, sweep_us;
  for (const SpanView& v : spans) {
    if (v.parent == nullptr ||
        std::string("loop.serve_cycle") != v.parent->name) {
      continue;
    }
    const uint64_t index = v.span->group >> 40;
    if (index >= windows.size() || windows[index].kind != WindowKind::kBase) {
      continue;
    }
    if (std::string("serve.acquire") == v.span->name) {
      acquire_us.push_back(v.duration_s * 1e6);
    } else if (std::string("serve.sweep") == v.span->name) {
      sweep_us.push_back(v.duration_s * 1e6);
    }
  }
  std::vector<double> queue = pooled(WindowKind::kLoaded,
                                     &ReaderResult::queue_wait_ms);
  int64_t loaded_sweeps = 0, loaded_requests = 0;
  for (const Window& w : windows) {
    if (w.kind != WindowKind::kLoaded) continue;
    loaded_sweeps += w.merged.sweeps;
    loaded_requests += w.requests;
  }
  std::vector<double> lateness = pooled(WindowKind::kBase,
                                        &ReaderResult::lateness_us);
  const std::vector<double> loaded_late =
      pooled(WindowKind::kLoaded, &ReaderResult::lateness_us);
  lateness.insert(lateness.end(), loaded_late.begin(), loaded_late.end());

  // The median, the tails and the rate search swing by a quarter or more
  // from run to run on a shared 4-vCPU box, so they are reported here,
  // unbounded.
  layer->push_back({"serve.query_p50_ms",
                    median_of(WindowKind::kBase, &Window::p50_ms), "ms"});
  layer->push_back({"serve.query_p99_ms",
                    median_of(WindowKind::kBase, &Window::p99_ms), "ms"});
  layer->push_back({"serve.sustainable_qps", s.search.lo, "1/s"});
  layer->push_back({"serve.loaded_p99_ms",
                    median_of(WindowKind::kLoaded, &Window::p99_ms), "ms"});
  layer->push_back({"serve.acquire_p50_us", Quantile(&acquire_us, 0.5), "us"});
  layer->push_back({"serve.sweep_p50_us", Quantile(&sweep_us, 0.5), "us"});
  layer->push_back({"serve.sweep_p99_us", Quantile(&sweep_us, 0.99), "us"});
  layer->push_back({"serve.queue_wait_p50_ms", Quantile(&queue, 0.5), "ms"});
  layer->push_back({"serve.queue_wait_p99_ms", Quantile(&queue, 0.99), "ms"});
  layer->push_back({"serve.batch_mean",
                    loaded_sweeps > 0 ? static_cast<double>(loaded_requests) /
                                            static_cast<double>(loaded_sweeps)
                                      : 0.0,
                    "count"});
  layer->push_back({"serve.attempted", static_cast<double>(totals.attempted()),
                    "count"});
  layer->push_back({"serve.failed", static_cast<double>(totals.failed()),
                    "count"});
  layer->push_back({"writer.lag_ms", Median(lag_ms), "ms"});
  layer->push_back({"loadgen.lateness_p50_us", Quantile(&lateness, 0.5), "us"});
  layer->push_back({"loadgen.lateness_p99_us", Quantile(&lateness, 0.99), "us"});
}

}  // namespace perfbench
