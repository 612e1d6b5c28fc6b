// Urban explorer: the intro's motivating questions answered with
// cross-modal neighbor search (paper §1 and §6.4).
//
//   "What are the popular activities around <place> at dusk?"
//   "Where does <activity keyword> happen, and when?"
//   "What does this part of town talk about?"
//
// The example trains ACTOR on a TWEET-like corpus and then answers each
// question with cross-modal k-NN queries against the learned space,
// cross-checking the answers against the generator's ground truth.
//
// Run:  ./urban_explorer [--records=12000] [--dim=32]

#include <algorithm>
#include <cstdio>

#include "core/actor.h"
#include "eval/pipeline.h"
#include "serve/query_engine.h"
#include "util/flags.h"

namespace {

void PrintNeighbors(const char* question,
                    const actor::Result<std::vector<actor::Neighbor>>& r) {
  std::printf("\n%s\n", question);
  if (!r.ok()) {
    std::printf("  (no answer: %s)\n", r.status().ToString().c_str());
    return;
  }
  for (const auto& n : *r) {
    std::printf("  %-30s [%s]  cos=%.3f\n", n.name.c_str(),
                actor::VertexTypeName(n.type), n.similarity);
  }
}

}  // namespace

int main(int argc, char** argv) {
  actor::Flags flags(argc, argv);

  actor::PipelineOptions pipeline = actor::TweetPipeline(0.4);
  pipeline.synthetic.num_records =
      static_cast<int>(flags.GetInt("records", 12000));
  auto data = actor::PrepareDataset(pipeline, "urban-explorer");
  data.status().CheckOK();

  actor::ActorOptions options;
  options.dim = static_cast<int32_t>(flags.GetInt("dim", 32));
  options.epochs = 8;
  options.samples_per_edge = 10;
  options.negatives = 5;
  auto model = actor::TrainActor(*data->graphs, options);
  model.status().CheckOK();

  actor::QueryEngine search(data->Snapshot(model->center));
  const auto& truth = data->dataset.truth;

  // Pick the busiest venue as "the waterfront plaza everyone visits".
  std::vector<int> venue_counts(truth.venue_locations.size(), 0);
  for (int v : truth.record_venues) ++venue_counts[v];
  const int busiest = static_cast<int>(
      std::max_element(venue_counts.begin(), venue_counts.end()) -
      venue_counts.begin());
  const actor::GeoPoint spot = truth.venue_locations[busiest];
  const int topic = truth.venue_topics[busiest];

  std::printf("City model trained: %zu records, %zu spatial hotspots.\n",
              data->full.size(), data->hotspots->spatial.size());
  std::printf("Featured venue: '%s' at (%.2f, %.2f), topic %d "
              "(peak hour %.1f).\n",
              truth.venue_keywords[busiest].c_str(), spot.x, spot.y, topic,
              truth.topic_peak_hours[topic]);

  // Q1: what do people do around this place?
  PrintNeighbors("Q1: What are the popular activities around the venue?",
                 search.QueryByLocation(spot, actor::VertexType::kWord, 8));

  // Q2: when is this place lively?
  PrintNeighbors("Q2: When is this area lively? (nearest temporal hotspots)",
                 search.QueryByLocation(spot, actor::VertexType::kTime, 4));

  // Q3: what happens around town at dusk (19:00)?
  PrintNeighbors("Q3: What are the popular activities at dusk (19:00)?",
                 search.QueryByHour(19.0, actor::VertexType::kWord, 8));

  // Q4: where does the venue's signature activity happen?
  const std::string keyword = truth.venue_keywords[busiest];
  PrintNeighbors(
      ("Q4: Where does '" + keyword + "' happen? (nearest locations)")
          .c_str(),
      search.QueryByKeyword(keyword, actor::VertexType::kLocation, 4));

  // Cross-check Q4 against the generator's ground truth: the top location
  // should be close to the true venue.
  auto locations =
      search.QueryByKeyword(keyword, actor::VertexType::kLocation, 1);
  if (locations.ok() && !locations->empty()) {
    const int32_t hotspot_id =
        data->hotspots->spatial.Assign(spot);
    const actor::VertexId expected =
        data->graphs->spatial_vertices[hotspot_id];
    std::printf("\nGround-truth check: top location %s the venue's own "
                "hotspot (%s).\n",
                (*locations)[0].vertex == expected ? "IS" : "is NOT",
                data->graphs->activity.vertex_name(expected).c_str());
  }
  return 0;
}
