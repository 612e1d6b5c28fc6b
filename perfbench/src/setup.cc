// Run configuration, input generation and set-up.

#include <algorithm>
#include <cmath>
#include <utility>

#include "loop.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr std::size_t kBatchRecords = 1000;

/// Each city is generated from a fixed seed with this many times the
/// records a run needs; the run seed then picks which records are used.
/// So every seed sees a different sample of the same city, and quality
/// differences between seeds are sampling noise, not a different city.
constexpr double kOversample = 1.3;

/// `k` distinct indices out of [0, n), drawn with `seed`, ascending (so the
/// sample keeps the generator's record order).
std::vector<std::size_t> SampleSorted(std::size_t n, std::size_t k,
                                      uint64_t seed) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  actor::Rng rng(seed);
  k = std::min(k, n);
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(idx[i], idx[i + rng.Uniform(n - i)]);
  }
  idx.resize(k);
  std::sort(idx.begin(), idx.end());
  return idx;
}

/// The synthetic city both streaming inputs are drawn from (the preset of
/// bench/streaming_activity and bench/serve_load).
actor::SyntheticConfig StreamCity(uint64_t seed, int records) {
  actor::SyntheticConfig c;
  c.seed = seed;
  c.num_records = records;
  c.num_users = 400;
  c.num_topics = 12;
  c.num_venues = 80;
  c.num_communities = 8;
  return c;
}


}  // namespace

bool MakeConfig(const std::string& workload, uint64_t seed, double seconds,
                bool trace, RunConfig* out, std::string* error) {
  RunConfig c;
  c.workload = workload;
  c.seed = seed;
  c.seconds = seconds;
  c.trace = trace;
  if (workload == "shifting_city" || workload == "sparse_city") {
    c.quiet_ticks = workload == "sparse_city" ? 2 : 0;
  } else {
    *error = "unknown workload '" + workload +
             "' (expected shifting_city or sparse_city)";
    return false;
  }
  if (!(seconds >= 1.0 && seconds <= 600.0)) {
    *error = "--seconds must be in [1, 600]";
    return false;
  }
  // p90 of the ingest step needs >= 10 samples beyond it, so full-length
  // runs hold >= 100 timed batches.
  c.stream_batches = std::max(8, static_cast<int>(std::lround(3.5 * seconds)));
  c.setup_reps = seconds >= 10.0 ? 6 : 1;
  c.window_s = std::clamp(seconds / 30.0, 0.5, 2.0);
  c.batch_scale = std::clamp(seconds / 15.0, 0.1, 2.0);
  *out = c;
  return true;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void Outcome::CheckFailed(const std::string& what) {
  ++check_failures_;
  if (messages_.size() < 20) messages_.push_back(what);
}

void Outcome::Merge(const Outcome& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  check_failures_ += other.check_failures_;
  for (const std::string& m : other.messages_) {
    if (messages_.size() < 20) messages_.push_back(m);
  }
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  const double pos = std::ceil(q * static_cast<double>(values->size()));
  std::size_t idx = pos > 0.0 ? static_cast<std::size_t>(pos) - 1 : 0;
  idx = std::min(idx, values->size() - 1);
  return (*values)[idx];
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

Inputs GenerateInputs(const RunConfig& config, SpanLog* log,
                      Outcome* outcome) {
  ScopedSpan span(log, "data.generate");
  Inputs in;

  // The ingest stream: two cities with identical vocabulary namespaces but
  // different latent structure, the second following the first, so the
  // same tokens change meaning halfway through. On a sparse stream each
  // batch of records is followed by config.quiet_ticks empty ticks.
  {
    const std::size_t period = static_cast<std::size_t>(config.quiet_ticks) + 1;
    const std::size_t data_ticks =
        1 + (static_cast<std::size_t>(config.stream_batches) + period - 1) /
                period;
    const std::size_t needed = data_ticks * kBatchRecords;
    const std::size_t half = needed / 2;
    const int generate =
        static_cast<int>(static_cast<double>(half) * kOversample) + 200;
    // Generated record ids below `generate` are city 100's pool, the rest
    // city 200's.
    auto a = actor::GenerateSynthetic(StreamCity(100, generate), "cityA");
    outcome->Attempt();
    if (!outcome->Check(a.ok(), "generate ingest stream")) return in;
    actor::Corpus combined = a.ValueOrDie().corpus;
    auto b = actor::GenerateSynthetic(StreamCity(200, generate), "cityB");
    outcome->Attempt();
    if (!outcome->Check(b.ok(), "generate ingest stream")) return in;
    for (actor::RawRecord rec : b.ValueOrDie().corpus.records()) {
      rec.id += generate;
      combined.Add(std::move(rec));
    }
    auto corpus = actor::TokenizedCorpus::Build(combined);
    outcome->Attempt();
    if (!outcome->Check(corpus.ok(), "tokenize ingest stream")) {
      return in;
    }
    std::vector<const actor::TokenizedRecord*> regime[2];
    for (const actor::TokenizedRecord& r : corpus.ValueOrDie().records()) {
      regime[r.id < generate ? 0 : 1].push_back(&r);
    }
    std::vector<actor::TokenizedRecord> ordered;
    for (int g = 0; g < 2; ++g) {
      const std::size_t want = g == 0 ? half : needed - half;
      for (std::size_t i : SampleSorted(regime[g].size(), want,
                                        SubSeed(config.seed, 1 + g))) {
        ordered.push_back(*regime[g][i]);
      }
    }
    if (!outcome->Check(ordered.size() == needed,
                        "ingest stream too short")) {
      return in;
    }
    // Tick 0 (warm-up) and every period-th timed tick after it carry the
    // next records; the ticks between are empty.
    std::size_t used = 0;
    for (std::size_t t = 0;
         t <= static_cast<std::size_t>(config.stream_batches); ++t) {
      if (t != 0 && (t - 1) % period != 0) {
        in.stream.emplace_back();
        continue;
      }
      in.stream.emplace_back(
          ordered.begin() + static_cast<std::ptrdiff_t>(used),
          ordered.begin() + static_cast<std::ptrdiff_t>(used + kBatchRecords));
      used += kBatchRecords;
    }
  }

  // Default-scale serving stream: 12 batches of ~1000 records.
  {
    const int records = 12000;
    auto ds = actor::GenerateSynthetic(
        StreamCity(300, static_cast<int>(records * kOversample)), "serve");
    outcome->Attempt();
    if (!outcome->Check(ds.ok(), "generate serving stream")) return in;
    auto corpus = actor::TokenizedCorpus::Build(ds.ValueOrDie().corpus);
    outcome->Attempt();
    if (!outcome->Check(corpus.ok(), "tokenize serving stream")) return in;
    const std::vector<std::size_t> pick =
        SampleSorted(corpus.ValueOrDie().size(), records,
                     SubSeed(config.seed, 3));
    const std::size_t batches = 12;
    std::vector<std::vector<actor::TokenizedRecord>> cut(batches);
    for (std::size_t i = 0; i < pick.size(); ++i) {
      cut[i * batches / pick.size()].push_back(
          corpus.ValueOrDie().record(pick[i]));
    }
    in.serve_head.assign(cut.begin(), cut.begin() + batches / 2);
    in.serve_tail.assign(cut.begin() + batches / 2, cut.end());
  }

  // Batch job: UTGEO-like corpus (mentions present, so LINE pre-training
  // and user-guided initialization run).
  in.batch_options = actor::UTGeoPipeline(config.batch_scale);
  in.batch_options.split_seed = SubSeed(config.seed, 5);
  const int records = in.batch_options.synthetic.num_records;
  actor::SyntheticConfig city = in.batch_options.synthetic;
  city.num_records = static_cast<int>(records * kOversample);
  auto raw = actor::GenerateSynthetic(city, "utgeo");
  outcome->Attempt();
  if (outcome->Check(raw.ok(), "generate batch corpus")) {
    const actor::Corpus& all = raw.ValueOrDie().corpus;
    for (std::size_t i : SampleSorted(all.size(), records,
                                      SubSeed(config.seed, 4))) {
      in.batch_raw.Add(all.record(i));
    }
  }
  return in;
}

double Setup(const Inputs& inputs, SpanLog* log, Outcome* outcome,
             Prepared* out) {
  ScopedSpan root(log, "loop.setup");
  const int64_t start = NowNs();
  auto warm = [&](const std::vector<std::vector<actor::TokenizedRecord>>&
                      batches) -> std::unique_ptr<actor::OnlineActor> {
    // Defaults: dim 32, 1 thread, decay 0.7, 3 samples/edge/batch.
    auto created = actor::OnlineActor::Create(actor::OnlineActorOptions{});
    outcome->Attempt();
    if (!outcome->Check(created.ok(), "OnlineActor::Create")) return nullptr;
    auto model =
        std::make_unique<actor::OnlineActor>(created.MoveValueOrDie());
    for (const auto& batch : batches) {
      ScopedSpan s(log, "core.ingest");
      outcome->Attempt();
      if (!outcome->Check(model->Ingest(batch).ok(), "warm-up Ingest")) {
        outcome->Fail();
        return nullptr;
      }
    }
    ScopedSpan s(log, "serve.publish");
    outcome->Attempt();
    if (!outcome->Check(model->PublishSnapshot() != nullptr,
                        "warm-up PublishSnapshot")) {
      outcome->Fail();
      return nullptr;
    }
    return model;
  };
  if (inputs.stream.empty() || inputs.serve_head.empty()) {
    outcome->CheckFailed("no generated streams to set up from");
    return 0.0;
  }
  out->stream_model = warm({inputs.stream.front()});
  out->serve_model = warm(inputs.serve_head);

  {
    ScopedSpan s(log, "data.tokenize");
    const actor::PipelineOptions& opt = inputs.batch_options;
    actor::PreparedDataset& d = out->batch;
    d.name = "utgeo";
    auto full = actor::TokenizedCorpus::Build(inputs.batch_raw, opt.corpus);
    outcome->Attempt();
    if (outcome->Check(full.ok(), "tokenize batch corpus")) {
      d.full = full.MoveValueOrDie();
      const std::size_t n = d.full.size();
      const std::size_t valid = std::max<std::size_t>(
          1, static_cast<std::size_t>(opt.valid_fraction * n));
      const std::size_t test = std::max<std::size_t>(
          1, static_cast<std::size_t>(opt.test_fraction * n));
      auto split = actor::RandomSplit(n, valid, test, opt.split_seed);
      outcome->Attempt();
      if (outcome->Check(split.ok(), "RandomSplit")) {
        d.split = split.MoveValueOrDie();
        d.train = actor::Subset(d.full, d.split.train);
        d.test = actor::Subset(d.full, d.split.test);
        d.vocab = std::make_shared<const actor::Vocabulary>(d.full.vocab());
      }
    }
  }
  return static_cast<double>(NowNs() - start) * 1e-9;
}

}  // namespace perfbench
