#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Every call into a library
// layer is wrapped in a ScopedSpan; spans are kept per thread (no locking on
// the recording path) and written out once the run has ended.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds since the first call in this process.
int64_t NowNs();

struct Span {
  const char* name = "";  // static string: "<layer>.<call>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the same log; -1 for a root span
  uint64_t group = 0;   // shared by the spans of one request or batch
};

/// The spans of one thread. Only that thread records into it; it is read
/// after the thread has been joined.
class SpanLog {
 public:
  explicit SpanLog(std::string thread_name)
      : thread_name_(std::move(thread_name)) {
    spans_.reserve(1 << 12);
  }

  int32_t Open(const char* name, uint64_t group) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.group = group;
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_.push_back(static_cast<int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void Close(int32_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
    open_.pop_back();
  }

  const std::string& thread_name() const { return thread_name_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string thread_name_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// Records a span for its scope; a no-op when `log` is null (untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t group = 0)
      : log_(log), index_(log != nullptr ? log->Open(name, group) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

/// One finished span with its log-independent identity, as the analysis
/// and the trace file see it.
struct SpanView {
  const Span* span;
  const Span* parent;  // null for a root span
  uint64_t id;         // (log index << 32) | span index
  double duration_s;
  double self_s;  // duration minus the child spans' durations
};

/// Owns every thread's SpanLog. Disabled tracers hand out null logs, so
/// untraced runs pay nothing but a branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// A fresh log for one thread; null when tracing is off. Thread-safe.
  SpanLog* NewLog(const std::string& thread_name);

  /// Every recorded span, with parent links and self time. Call only after
  /// all recording threads have been joined.
  std::vector<SpanView> Collect() const;

  /// Writes one JSON object per span (id, parent, name, thread, group,
  /// start/end in microseconds) to `path`. Returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;  // guards logs_
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

/// Durations (seconds) of the spans named `name`; when `parent` is non-null
/// only those whose parent span is named `parent`.
std::vector<double> Durations(const std::vector<SpanView>& spans,
                              const std::string& name,
                              const char* parent = nullptr);

/// Sum of self time (seconds) of the spans named `name` under `parent`.
double SelfSeconds(const std::vector<SpanView>& spans, const std::string& name,
                   const char* parent);

/// Measured cost in nanoseconds of recording one span (open + close).
double SpanCostNs();

/// Prints the per-name self-time table (count, total, self) to stdout.
void PrintSelfTimeReport(const std::vector<SpanView>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
