// Quickstart: the complete ACTOR pipeline in one file.
//
//   1. generate a synthetic urban-activity corpus (substitute for the
//      paper's tweet datasets),
//   2. tokenize, split, detect spatiotemporal hotspots, build the activity
//      and user-interaction graphs,
//   3. train the hierarchical cross-modal embedding (Algorithm 1),
//   4. evaluate the three cross-modal prediction tasks (MRR),
//   5. run a cross-modal neighbor query.
//
// Run:  ./quickstart [--records=8000] [--dim=32] [--epochs=8]

#include <cstdio>

#include "core/actor.h"
#include "eval/cross_modal_model.h"
#include "eval/pipeline.h"
#include "eval/prediction.h"
#include "serve/query_engine.h"
#include "util/flags.h"
#include "util/stopwatch.h"

int main(int argc, char** argv) {
  actor::Flags flags(argc, argv);

  // --- 1+2: data -> graphs -------------------------------------------------
  actor::PipelineOptions pipeline = actor::UTGeoPipeline(/*scale=*/0.4);
  pipeline.synthetic.num_records =
      static_cast<int>(flags.GetInt("records", 8000));
  actor::Stopwatch prep_timer;
  auto prepared_result = actor::PrepareDataset(pipeline, "quickstart");
  prepared_result.status().CheckOK();
  actor::PreparedDataset& data = *prepared_result;
  std::printf(
      "prepared '%s': %zu records (%zu train / %zu test), vocab %d,\n"
      "  %zu spatial + %zu temporal hotspots, |V|=%d, |E|=%lld directed "
      "(%.1fs)\n",
      data.name.c_str(), data.full.size(), data.train.size(),
      data.test.size(), data.full.vocab().size(), data.hotspots->spatial.size(),
      data.hotspots->temporal.size(), data.graphs->activity.num_vertices(),
      static_cast<long long>(data.graphs->activity.num_directed_edges()),
      prep_timer.ElapsedSeconds());

  // --- 3: train ACTOR ------------------------------------------------------
  actor::ActorOptions options;
  options.dim = static_cast<int32_t>(flags.GetInt("dim", 32));
  options.epochs = static_cast<int>(flags.GetInt("epochs", 8));
  options.samples_per_edge = static_cast<int>(flags.GetInt("spe", 10));
  auto model_result = actor::TrainActor(*data.graphs, options);
  model_result.status().CheckOK();
  actor::ActorModel& model = *model_result;
  std::printf("trained ACTOR: %.1fs pre-train + %.1fs train, %lld edge "
              "steps, %lld record steps\n",
              model.stats.pretrain_seconds, model.stats.train_seconds,
              static_cast<long long>(model.stats.edge_steps),
              static_cast<long long>(model.stats.record_steps));

  // --- 4: cross-modal prediction -------------------------------------------
  auto snapshot = data.Snapshot(model.center);
  actor::EmbeddingCrossModalModel scorer("ACTOR", snapshot);
  auto mrr_result = actor::EvaluateCrossModal(scorer, data.test);
  mrr_result.status().CheckOK();
  std::printf("MRR  text=%.4f  location=%.4f  time=%.4f\n", mrr_result->text,
              mrr_result->location, mrr_result->time);

  // --- 5: a cross-modal neighbor query -------------------------------------
  // Ask for the words most associated with the first venue's location.
  const actor::GeoPoint venue = data.dataset.truth.venue_locations.front();
  actor::QueryEngine searcher(snapshot);
  auto neighbors =
      searcher.QueryByLocation(venue, actor::VertexType::kWord, 8);
  neighbors.status().CheckOK();
  std::printf("words near venue (%.1f, %.1f) [truth keyword '%s']:\n",
              venue.x, venue.y,
              data.dataset.truth.venue_keywords.front().c_str());
  for (const auto& n : *neighbors) {
    std::printf("  %-28s %.3f\n", n.name.c_str(), n.similarity);
  }
  return 0;
}
