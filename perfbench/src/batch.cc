// The batch ACTOR job (paper Algorithm 1): raw tokens to a servable model,
// then the Table 2 row.

#include <cmath>
#include <string>

#include "core/actor.h"
#include "eval/cross_modal_model.h"
#include "eval/prediction.h"
#include "loop.h"

namespace perfbench {

void BatchPhase::RunJob() {
  actor::ActorOptions options;
  options.dim = 32;
  options.epochs = 8;
  options.samples_per_edge = 10;
  options.negatives = 5;
  options.num_threads = kTrainThreads;  // the HOGWILD thread-pool path

  actor::PreparedDataset* data = data_;
  std::shared_ptr<const actor::ModelSnapshot> snapshot;
  const int64_t t0 = NowNs();
  {
    ScopedSpan train(log_, "loop.train");
    auto ok = [&](bool good, const std::string& what) {
      outcome_->Attempt();
      if (!good) {
        outcome_->Fail();
        outcome_->CheckFailed(what);
      }
      return good;
    };
    auto hotspots = [&] {
      ScopedSpan s(log_, "hotspot.detect");
      return actor::DetectHotspots(data->train);
    }();
    if (!ok(hotspots.ok(), "DetectHotspots: " + hotspots.status().ToString())) {
      return;
    }
    data->hotspots =
        std::make_shared<const actor::Hotspots>(hotspots.MoveValueOrDie());
    auto graphs = [&] {
      ScopedSpan s(log_, "graph.build");
      return actor::BuildGraphs(data->train, *data->hotspots);
    }();
    if (!ok(graphs.ok(), "BuildGraphs: " + graphs.status().ToString())) return;
    data->graphs =
        std::make_shared<const actor::BuiltGraphs>(graphs.MoveValueOrDie());
    auto model = [&] {
      ScopedSpan s(log_, "core.actor");
      return actor::TrainActor(*data->graphs, options);
    }();
    if (!ok(model.ok(), "TrainActor: " + model.status().ToString())) return;
    stats_ = model.ValueOrDie().stats;
    {
      ScopedSpan s(log_, "serve.publish_batch");
      snapshot = data->Snapshot(
          model.ValueOrDie().center,
          static_cast<uint64_t>(stats_.edge_steps + stats_.record_steps));
    }
    if (!ok(snapshot != nullptr, "PreparedDataset::Snapshot returned null")) {
      return;
    }
  }
  train_s_ = static_cast<double>(NowNs() - t0) * 1e-9;
  outcome_->Check(stats_.edge_steps > 0 && stats_.record_steps > 0,
                  "TrainActor ran no SGD steps");

  actor::EvalOptions eval;
  eval.max_queries = 2000;
  eval.seed = SubSeed(config_.seed, 6);
  auto scores = [&] {
    ScopedSpan s(log_, "eval.mrr");
    const actor::EmbeddingCrossModalModel scorer("ACTOR", snapshot);
    return actor::EvaluateCrossModal(scorer, data->test, eval);
  }();
  outcome_->Attempt();
  if (!outcome_->Check(scores.ok(), "EvaluateCrossModal: " +
                                        scores.status().ToString())) {
    outcome_->Fail();
    return;
  }
  const actor::MrrScores& mrr = scores.ValueOrDie();
  for (double v : {mrr.text, mrr.location, mrr.time}) {
    outcome_->Check(std::isfinite(v) && v > 0.0 && v <= 1.0,
                    "Table 2 MRR outside (0, 1]");
  }
  mrr_ = mrr;
  done_ = true;
}

void BatchPhase::Finish(Tracer* tracer, Metrics* e2e, Metrics* layer) {
  outcome_->Check(done_, "the batch job did not complete");
  e2e->push_back({"mrr_text", mrr_.text, "mrr"});
  e2e->push_back({"mrr_location", mrr_.location, "mrr"});
  e2e->push_back({"mrr_time", mrr_.time, "mrr"});

  if (!tracer->enabled() || !done_) return;
  const std::vector<SpanView> spans = tracer->Collect();
  auto total = [&](const char* name) {
    double t = 0.0;
    for (double d : Durations(spans, name, "loop.train")) t += d;
    return t;
  };
  double covered = 0.0, wall = 0.0;
  for (const char* name :
       {"hotspot.detect", "graph.build", "core.actor", "serve.publish_batch"}) {
    covered += SelfSeconds(spans, name, "loop.train");
  }
  for (double d : Durations(spans, "loop.train")) wall += d;
  double eval_s = 0.0;
  for (double d : Durations(spans, "eval.mrr")) eval_s += d;
  const double steps =
      static_cast<double>(stats_.edge_steps + stats_.record_steps);
  // The job's wall time is reported here, unbounded: from one minute to the
  // next it swings by a fifth or more on a shared host, and the speed gauge
  // does not follow it (README.md).
  layer->push_back({"batch.train_s", train_s_, "s"});
  layer->push_back({"hotspot.detect_s", total("hotspot.detect"), "s"});
  layer->push_back({"hotspot.spatial_count",
                    static_cast<double>(data_->hotspots->spatial.size()),
                    "count"});
  layer->push_back({"hotspot.temporal_count",
                    static_cast<double>(data_->hotspots->temporal.size()),
                    "count"});
  layer->push_back({"graph.build_s", total("graph.build"), "s"});
  layer->push_back(
      {"graph.directed_edges",
       static_cast<double>(data_->graphs->activity.num_directed_edges()),
       "count"});
  layer->push_back({"core.actor_s", total("core.actor"), "s"});
  layer->push_back({"core.actor_pretrain_s", stats_.pretrain_seconds, "s"});
  layer->push_back({"core.actor_train_s", stats_.train_seconds, "s"});
  layer->push_back({"embedding.steps_per_s",
                    stats_.train_seconds > 0.0 ? steps / stats_.train_seconds
                                               : 0.0,
                    "1/s"});
  layer->push_back({"trace.train_coverage_pct",
                    wall > 0.0 ? 100.0 * covered / wall : 0.0, "%"});
  layer->push_back({"eval.mrr_s", eval_s, "s"});
}

}  // namespace perfbench
