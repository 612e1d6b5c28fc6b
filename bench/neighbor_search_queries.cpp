// Reproduces the neighbor-search comparisons of §6.4 — Fig. 9 (spatial
// query), Fig. 10 (temporal query), Fig. 11 (textual query): top-k
// cross-modal neighbors under ACTOR vs CrossMap on the TWEET-like
// dataset.
//
// Expected shape: ACTOR surfaces venue-/topic-specific units (venue name
// keywords, the venue's own topic words) where CrossMap mixes in generic
// high-frequency words (paper Figs. 9-11).
//
// Run:  ./neighbor_search_queries [--scale=0.25] [--k=10]

#include <algorithm>
#include <cstdio>

#include "baselines/crossmap.h"
#include "bench_common.h"
#include "core/actor.h"
#include "serve/query_engine.h"
#include "util/stopwatch.h"

namespace {

void PrintSideBySide(const char* title,
                     const std::vector<actor::Neighbor>& actor_results,
                     const std::vector<actor::Neighbor>& crossmap_results) {
  std::printf("\n--- %s ---\n", title);
  std::printf("  %-30s %6s | %-30s %6s\n", "ACTOR", "cos", "CrossMap", "cos");
  const std::size_t rows =
      std::max(actor_results.size(), crossmap_results.size());
  for (std::size_t i = 0; i < rows; ++i) {
    const std::string a =
        i < actor_results.size() ? actor_results[i].name : "";
    const double a_sim =
        i < actor_results.size() ? actor_results[i].similarity : 0.0;
    const std::string c =
        i < crossmap_results.size() ? crossmap_results[i].name : "";
    const double c_sim =
        i < crossmap_results.size() ? crossmap_results[i].similarity : 0.0;
    std::printf("  %-30s %6.3f | %-30s %6.3f\n", a.c_str(), a_sim, c.c_str(),
                c_sim);
  }
}

}  // namespace

int main(int argc, char** argv) {
  actor::Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 0.25);
  const int k = static_cast<int>(flags.GetInt("k", 10));

  std::printf("Neighbor search queries (Figs. 9-11): ACTOR vs CrossMap\n");
  // §6.4 uses the TWEET dataset.
  auto data = actor::PrepareDataset(actor::TweetPipeline(scale), "TWEET");
  data.status().CheckOK();

  actor::ActorOptions actor_options;
  actor_options.dim = 32;
  actor_options.epochs = 8;
  actor_options.samples_per_edge = 10;
  actor_options.negatives = 5;  // see Table 2 note on K at reduced dimension
  auto actor_model = actor::TrainActor(*data->graphs, actor_options);
  actor_model.status().CheckOK();

  actor::CrossMapOptions crossmap_options;
  crossmap_options.dim = 32;
  crossmap_options.epochs = 8;
  crossmap_options.samples_per_edge = 10;
  crossmap_options.negatives = 5;
  auto crossmap_model =
      actor::TrainCrossMap(*data->graphs, crossmap_options);
  crossmap_model.status().CheckOK();

  actor::QueryEngine actor_search(data->Snapshot(actor_model->center));
  actor::QueryEngine crossmap_search(data->Snapshot(crossmap_model->center));

  // Fig. 9: spatial query at the busiest venue ("port of Los Angeles" in
  // the paper).
  std::vector<int> venue_counts(data->dataset.truth.venue_locations.size(),
                                0);
  for (int v : data->dataset.truth.record_venues) ++venue_counts[v];
  const int busiest = static_cast<int>(
      std::max_element(venue_counts.begin(), venue_counts.end()) -
      venue_counts.begin());
  const actor::GeoPoint venue =
      data->dataset.truth.venue_locations[busiest];
  {
    auto a = actor_search.QueryByLocation(venue, actor::VertexType::kWord, k);
    auto c =
        crossmap_search.QueryByLocation(venue, actor::VertexType::kWord, k);
    a.status().CheckOK();
    c.status().CheckOK();
    char title[160];
    std::snprintf(title, sizeof(title),
                  "Fig. 9: spatial query at venue %d (%.2f, %.2f), truth "
                  "keyword '%s'",
                  busiest, venue.x, venue.y,
                  data->dataset.truth.venue_keywords[busiest].c_str());
    PrintSideBySide(title, *a, *c);
  }

  // Fig. 10: temporal query of 10:00 pm — nearby times and words.
  {
    auto a_words =
        actor_search.QueryByHour(22.0, actor::VertexType::kWord, k);
    auto c_words =
        crossmap_search.QueryByHour(22.0, actor::VertexType::kWord, k);
    a_words.status().CheckOK();
    c_words.status().CheckOK();
    PrintSideBySide("Fig. 10: temporal query of 22:00 -> words", *a_words,
                    *c_words);
    auto a_times =
        actor_search.QueryByHour(22.0, actor::VertexType::kTime, 5);
    auto c_times =
        crossmap_search.QueryByHour(22.0, actor::VertexType::kTime, 5);
    a_times.status().CheckOK();
    c_times.status().CheckOK();
    PrintSideBySide("Fig. 10: temporal query of 22:00 -> temporal hotspots",
                    *a_times, *c_times);
  }

  // Fig. 11: textual query of a venue keyword ("patrick_molloy_sport_pub"
  // in the paper) -> words, locations, and times.
  {
    const std::string keyword =
        data->dataset.truth.venue_keywords[busiest];
    auto a_words =
        actor_search.QueryByKeyword(keyword, actor::VertexType::kWord, k);
    auto c_words =
        crossmap_search.QueryByKeyword(keyword, actor::VertexType::kWord, k);
    if (a_words.ok() && c_words.ok()) {
      PrintSideBySide(("Fig. 11: textual query '" + keyword + "' -> words")
                          .c_str(),
                      *a_words, *c_words);
      auto a_locs = actor_search.QueryByKeyword(
          keyword, actor::VertexType::kLocation, 5);
      auto c_locs = crossmap_search.QueryByKeyword(
          keyword, actor::VertexType::kLocation, 5);
      a_locs.status().CheckOK();
      c_locs.status().CheckOK();
      PrintSideBySide(
          ("Fig. 11: textual query '" + keyword + "' -> locations").c_str(),
          *a_locs, *c_locs);
    } else {
      std::printf("\n(venue keyword '%s' pruned from vocabulary; skipping "
                  "Fig. 11)\n",
                  keyword.c_str());
    }
  }
  return 0;
}
