#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

int64_t NowNs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

SpanLog* Tracer::NewLog(const std::string& thread_name) {
  if (!enabled_) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  logs_.push_back(std::make_unique<SpanLog>(thread_name));
  return logs_.back().get();
}

std::vector<SpanView> Tracer::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanView> out;
  for (std::size_t l = 0; l < logs_.size(); ++l) {
    const std::vector<Span>& spans = logs_[l]->spans();
    // Children nest inside their parent on the same thread, so a parent's
    // covered time is the plain sum of its children's durations.
    std::vector<double> child_s(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_s[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      SpanView v;
      v.span = &s;
      v.parent =
          s.parent >= 0 ? &spans[static_cast<std::size_t>(s.parent)] : nullptr;
      v.id = (static_cast<uint64_t>(l) << 32) | i;
      v.duration_s = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      v.self_s = v.duration_s - child_s[i];
      out.push_back(v);
    }
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<SpanView> spans = Collect();
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t next = 0;
  for (std::size_t l = 0; l < logs_.size(); ++l) {
    const std::vector<Span>& raw = logs_[l]->spans();
    for (std::size_t i = 0; i < raw.size(); ++i, ++next) {
      const SpanView& v = spans[next];
      const Span& s = *v.span;
      char buf[320];
      const long long parent_id =
          s.parent >= 0
              ? static_cast<long long>((static_cast<uint64_t>(l) << 32) |
                                       static_cast<uint64_t>(s.parent))
              : -1;
      std::snprintf(buf, sizeof(buf),
                    "{\"id\": %llu, \"parent\": %lld, \"name\": \"%s\", "
                    "\"thread\": \"%s\", \"group\": %llu, \"start_us\": %.3f, "
                    "\"end_us\": %.3f, \"self_us\": %.3f}\n",
                    static_cast<unsigned long long>(v.id), parent_id, s.name,
                    logs_[l]->thread_name().c_str(),
                    static_cast<unsigned long long>(s.group),
                    static_cast<double>(s.start_ns) * 1e-3,
                    static_cast<double>(s.end_ns) * 1e-3, v.self_s * 1e6);
      out << buf;
    }
  }
  out.flush();
  return static_cast<bool>(out);
}

std::vector<double> Durations(const std::vector<SpanView>& spans,
                              const std::string& name, const char* parent) {
  std::vector<double> out;
  for (const SpanView& v : spans) {
    if (name != v.span->name) continue;
    if (parent != nullptr &&
        (v.parent == nullptr || std::string(parent) != v.parent->name)) {
      continue;
    }
    out.push_back(v.duration_s);
  }
  return out;
}

double SelfSeconds(const std::vector<SpanView>& spans, const std::string& name,
                   const char* parent) {
  double total = 0.0;
  for (const SpanView& v : spans) {
    if (name != v.span->name) continue;
    if (v.parent == nullptr || std::string(parent) != v.parent->name) continue;
    total += v.self_s;
  }
  return total;
}

double SpanCostNs() {
  constexpr int kSpans = 200'000;
  SpanLog log("calibration");
  const int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan s(&log, "calibration", static_cast<uint64_t>(i));
  }
  return static_cast<double>(NowNs() - start) / kSpans;
}

void PrintSelfTimeReport(const std::vector<SpanView>& spans) {
  struct Row {
    int64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Row> rows;
  for (const SpanView& v : spans) {
    const std::string key = std::string(v.parent ? v.parent->name : "-") +
                            " > " + v.span->name;
    Row& r = rows[key];
    ++r.count;
    r.total_s += v.duration_s;
    r.self_s += v.self_s;
  }
  std::printf("self time by span (parent > name):\n");
  std::printf("  %-44s %9s %11s %11s\n", "span", "count", "total_s", "self_s");
  for (const auto& [key, r] : rows) {
    std::printf("  %-44s %9lld %11.4f %11.4f\n", key.c_str(),
                static_cast<long long>(r.count), r.total_s, r.self_s);
  }
}

}  // namespace perfbench
