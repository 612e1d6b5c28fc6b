// Closed-loop streaming ingest: one timed step is Ingest() followed by
// PublishSnapshot(), i.e. a batch handed in until it is visible to readers.
// An empty batch is a pure-decay tick. The speed gauge runs, untimed, just
// before and just after each step, and the step's time is reported at the
// reference speed their mean gives.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "eval/mrr.h"
#include "loop.h"
#include "util/rng.h"

namespace perfbench {
namespace {

/// Location MRR of `model` on `batch` before it is ingested: the truth
/// hotspot ranked against 10 hotspots of other records of the batch (the
/// protocol of bench/streaming_activity).
double PrequentialLocationMrr(const actor::OnlineActor& model,
                              const std::vector<actor::TokenizedRecord>& batch,
                              uint64_t seed) {
  actor::Rng rng(seed);
  std::vector<int> ranks;
  std::vector<double> noise;
  for (std::size_t q = 0; q < std::min<std::size_t>(batch.size(), 400); ++q) {
    const actor::VertexId truth_unit = model.SpatialUnit(batch[q].location);
    if (truth_unit == actor::kInvalidVertex) continue;
    const double truth = model.ScoreRecordAgainstUnit(batch[q], truth_unit);
    noise.clear();
    for (int n = 0; n < 10; ++n) {
      const auto& other = batch[rng.Uniform(batch.size())];
      noise.push_back(model.ScoreRecordAgainstUnit(
          batch[q], model.SpatialUnit(other.location)));
    }
    ranks.push_back(actor::RankOfTruth(truth, noise));
  }
  return actor::MeanReciprocalRank(ranks);
}

bool IsUnitInterval(double v) { return std::isfinite(v) && v > 0.0 && v <= 1.0; }

}  // namespace

StreamPhase::StreamPhase(const RunConfig& config, const Inputs& inputs,
                         actor::OnlineActor* model, SpanLog* log,
                         Outcome* outcome)
    : config_(config),
      inputs_(inputs),
      model_(model),
      log_(log),
      outcome_(outcome) {
  auto first = model->CurrentSnapshot();
  last_version_ = first != nullptr ? first->version() : 0;
}

void StreamPhase::Run(int batches) {
  const std::size_t last =
      std::min<std::size_t>(static_cast<std::size_t>(config_.stream_batches),
                            inputs_.stream.size() - 1);
  for (int b = 0; b < batches && next_ <= last; ++b, ++next_) {
    const std::size_t i = next_;
    const auto& batch = inputs_.stream[i];
    if (!batch.empty()) {
      double mrr = 0.0;
      {
        ScopedSpan s(log_, "eval.prequential", i);
        mrr = PrequentialLocationMrr(*model_, batch,
                                     SubSeed(config_.seed, 100 + i));
      }
      outcome_->Check(IsUnitInterval(mrr),
                      "prequential MRR outside (0, 1] at batch " +
                          std::to_string(i));
      mrr_sum_ += mrr;
      ++mrr_batches_;
    }

    const double gauge_before_ms = GaugeMs();
    actor::Status status;
    std::shared_ptr<const actor::ModelSnapshot> snap;
    const int64_t t0 = NowNs();
    {
      ScopedSpan step(log_, "loop.ingest_step", i);
      {
        ScopedSpan s(log_, "core.ingest", i);
        status = model_->Ingest(batch);
      }
      if (status.ok()) {
        ScopedSpan s(log_, "serve.publish", i);
        snap = model_->PublishSnapshot();
      }
    }
    const int64_t t1 = NowNs();
    const double gauge_ms = 0.5 * (gauge_before_ms + GaugeMs());
    outcome_->Attempt(2);
    if (!outcome_->Check(status.ok(), "Ingest: " + status.ToString()) ||
        !outcome_->Check(snap != nullptr, "PublishSnapshot returned null")) {
      outcome_->Fail();
      continue;
    }
    outcome_->Check(snap->version() > last_version_,
                    "snapshot version did not advance after a batch");
    if (batch.empty()) {
      // The version is the batch count plus the edge-store versions. Decay
      // bumps a store's version only when it dropped edges, and then the
      // store's samplers are rebuilt; otherwise they are reused.
      ++decay_ticks_;
      decay_rebuilds_ +=
          static_cast<int64_t>(snap->version() - last_version_) - 1;
    }
    last_version_ = snap->version();
    const double step_ms = static_cast<double>(t1 - t0) * 1e-6;
    step_ms_.push_back(step_ms);
    reference_ms_.push_back(AtReferenceSpeed(step_ms, gauge_ms));
    gauge_ms_.push_back(gauge_ms);
    records_ += static_cast<int64_t>(batch.size());
  }
}

void StreamPhase::Finish(Tracer* tracer, Metrics* e2e, Metrics* layer) {
  outcome_->Check(!step_ms_.empty(), "no timed ingest steps ran");
  double timed_s = 0.0, reference_s = 0.0;
  for (double ms : step_ms_) timed_s += ms * 1e-3;
  for (double ms : reference_ms_) reference_s += ms * 1e-3;

  const double mean_mrr =
      mrr_batches_ == 0 ? 0.0 : mrr_sum_ / static_cast<double>(mrr_batches_);
  outcome_->Check(IsUnitInterval(mean_mrr), "prequential_mrr outside (0, 1]");
  std::vector<double> steps = reference_ms_;
  e2e->push_back({"ingest_records_per_s",
                  reference_s > 0.0 ? static_cast<double>(records_) / reference_s
                                    : 0.0,
                  "1/s"});
  e2e->push_back({"ingest_batch_p50_ms", Quantile(&steps, 0.5), "ms"});
  e2e->push_back({"ingest_batch_p90_ms", Quantile(&steps, 0.9), "ms"});
  std::vector<double> raw = step_ms_;
  std::printf("ingest as measured: %.1f records/s, step p50 %.3f ms, p90 "
              "%.3f ms; gauge p50 %.3f ms\n",
              timed_s > 0.0 ? static_cast<double>(records_) / timed_s : 0.0,
              Quantile(&raw, 0.5), Quantile(&raw, 0.9), Median(gauge_ms_));
  e2e->push_back({"prequential_mrr", mean_mrr, "mrr"});

  if (!tracer->enabled()) return;
  const std::vector<SpanView> spans = tracer->Collect();
  std::vector<double> ingest = Durations(spans, "core.ingest",
                                         "loop.ingest_step");
  std::vector<double> publish = Durations(spans, "serve.publish",
                                          "loop.ingest_step");
  double step_total = 0.0;
  for (double d : Durations(spans, "loop.ingest_step")) step_total += d;
  const double covered =
      SelfSeconds(spans, "core.ingest", "loop.ingest_step") +
      SelfSeconds(spans, "serve.publish", "loop.ingest_step");
  double prequential = 0.0;
  for (double d : Durations(spans, "eval.prequential")) prequential += d;
  const actor::OnlineActor& m = *model_;
  layer->push_back({"core.ingest_p50_ms", Quantile(&ingest, 0.5) * 1e3, "ms"});
  layer->push_back({"core.ingest_p90_ms", Quantile(&ingest, 0.9) * 1e3, "ms"});
  layer->push_back({"core.units", static_cast<double>(m.num_units()), "count"});
  layer->push_back({"core.live_edges", static_cast<double>(m.num_live_edges()),
                    "count"});
  layer->push_back({"core.spatial_hotspots",
                    static_cast<double>(m.num_spatial_hotspots()), "count"});
  layer->push_back({"core.temporal_hotspots",
                    static_cast<double>(m.num_temporal_hotspots()), "count"});
  layer->push_back(
      {"core.decay_ticks", static_cast<double>(decay_ticks_), "count"});
  layer->push_back({"core.decay_tick_rebuilds",
                    static_cast<double>(decay_rebuilds_), "count"});
  layer->push_back(
      {"serve.publish_p50_ms", Quantile(&publish, 0.5) * 1e3, "ms"});
  layer->push_back(
      {"serve.publish_p90_ms", Quantile(&publish, 0.9) * 1e3, "ms"});
  layer->push_back({"trace.ingest_coverage_pct",
                    step_total > 0.0 ? 100.0 * covered / step_total : 0.0,
                    "%"});
  layer->push_back({"eval.prequential_s", prequential, "s"});
  layer->push_back({"host.gauge_ms", Median(gauge_ms_), "ms"});
}

}  // namespace perfbench
