// CPU placement of the run's threads, and the speed gauge that puts timings
// on one scale.
//
// The vCPUs of a shared host do not run at one speed: a neighbour on the
// same physical core slows one of them, by half at times, while the others
// run at full speed, and which one is slow changes over minutes. Left to
// the scheduler, a single-threaded phase lands on any of them, so a run's
// timings depended on where it landed. Ranking the CPUs by a short fixed
// loop once a round and pinning each timed thread to its own fast CPU takes
// that lottery out of the measurement.
//
// Pinning does not help when the whole host slows: between runs minutes
// apart a single-threaded ingest step took up to 1.7x as long. The
// gauge measures that speed. It is a fixed piece of SGD-like work on a table
// larger than a core's L2, so like the model's ingest it feels both a busy
// neighbour core and a contended L3. The gauge runs on the same CPU just
// before and after each timed step, and the step's time is rescaled to a
// reference speed (loop.h).

#include <sched.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <utility>
#include <vector>

#include "loop.h"

namespace perfbench {
namespace {

volatile uint64_t g_probe_sink;  // keeps the probe loop from being elided

/// A fixed amount of dependent integer work and L2-sized table reads, the
/// mix the ingest step does. Returns its wall time in nanoseconds.
int64_t TimeProbe() {
  static uint32_t table[1 << 16];
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  const int64_t start = NowNs();
  for (int i = 0; i < 1'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    uint32_t& slot = table[(x >> 40) & ((1 << 16) - 1)];
    slot += static_cast<uint32_t>(x >> 32);
    x ^= slot;
  }
  const int64_t elapsed = NowNs() - start;
  g_probe_sink = x;
  return elapsed;
}

/// Rows of the gauge's table: 65536 x 32 floats, 8 MB.
constexpr int kGaugeRows = 1 << 16;
constexpr int kGaugeDim = 32;

/// Dot product and symmetric update of random row pairs, as an SGD step on
/// an edge does, over a table set up once (untimed).
int64_t TimeGauge() {
  static std::vector<float> table = [] {
    std::vector<float> t(static_cast<std::size_t>(kGaugeRows) * kGaugeDim);
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = 0.01f * static_cast<float>(static_cast<int>(i * 37 % 101) - 50);
    }
    return t;
  }();
  float* rows = table.data();
  uint64_t x = 0x2545f4914f6cdd1dULL;
  const int64_t start = NowNs();
  for (int i = 0; i < 100'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    float* a = rows + ((x >> 32) & (kGaugeRows - 1)) * kGaugeDim;
    float* b = rows + (x >> 48) * kGaugeDim;
    float dot = 0.0f;
    for (int d = 0; d < kGaugeDim; ++d) dot += a[d] * b[d];
    const float g = 0.01f / (1.0f + dot * dot);
    for (int d = 0; d < kGaugeDim; ++d) {
      const float ad = a[d];
      a[d] += g * b[d];
      b[d] -= g * ad;
    }
  }
  const int64_t elapsed = NowNs() - start;
  g_probe_sink = x + static_cast<uint64_t>(rows[7] != 0.0f);
  return elapsed;
}

bool PinCallingThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

std::vector<int> RankCpus(const std::vector<int>& allowed) {
  // Two passes, best of each CPU's two, so one preemption does not demote
  // a fast CPU.
  std::vector<std::pair<int64_t, int>> timed;
  for (int c : allowed) timed.emplace_back(INT64_MAX, c);
  for (int pass = 0; pass < 2; ++pass) {
    for (auto& [ns, c] : timed) {
      if (PinCallingThread({c})) ns = std::min(ns, TimeProbe());
    }
  }
  PinCallingThread(allowed);
  std::printf("cpu probe ms:");
  for (const auto& [ns, c] : timed) std::printf(" cpu%d=%.2f", c, ns * 1e-6);
  std::printf("\n");
  std::sort(timed.begin(), timed.end());
  std::vector<int> ranked;
  for (const auto& [ns, c] : timed) ranked.push_back(c);
  return ranked;
}

double GaugeMs() { return static_cast<double>(TimeGauge()) * 1e-6; }

void PinTo(const std::vector<int>& ranked, std::size_t first,
           std::size_t count) {
  const std::size_t lo = std::min(first, ranked.size());
  const std::size_t hi = std::min(first + count, ranked.size());
  PinCallingThread(lo < hi ? std::vector<int>(ranked.begin() + lo,
                                              ranked.begin() + hi)
                           : ranked);
}

}  // namespace perfbench
