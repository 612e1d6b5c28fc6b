#ifndef ACTOR_GRAPH_GRAPH_BUILDER_H_
#define ACTOR_GRAPH_GRAPH_BUILDER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "data/corpus.h"
#include "graph/heterograph.h"
#include "hotspot/hotspot_detector.h"
#include "util/result.h"

namespace actor {

/// Options for activity / user-graph construction (paper §4.1, Algorithm 1
/// line 2).
struct GraphBuildOptions {
  /// Create UT/UW/UL edges from a record's author to its units.
  bool include_author_edges = true;
  /// Create UT/UW/UL edges from each @-mentioned user to the record's
  /// units. These are the edges the inter-record meta-graphs M1-M6 pass
  /// through (a mentioned user links another record's units to their own).
  bool include_mention_edges = true;
  /// Create pairwise WW edges among a record's keywords.
  bool include_word_pair_edges = true;
  /// Cap on keywords per record used for WW pairs (quadratic guard).
  int max_words_for_pairs = 30;
};

/// The vertex ids of one record's units in the activity graph.
struct RecordUnits {
  VertexId time_unit = kInvalidVertex;
  VertexId location_unit = kInvalidVertex;
  std::vector<VertexId> word_units;
  VertexId author = kInvalidVertex;          // user vertex in activity graph
  std::vector<VertexId> mentioned;           // user vertices
};

/// Output of graph construction: the two graph layers plus lookup tables.
struct BuiltGraphs {
  Heterograph activity;    // T/L/W/U vertices; TL/LW/WT/WW/UT/UW/UL edges
  Heterograph user_graph;  // U vertices; UU mention edges (Def. 2)

  /// Temporal hotspot id -> activity-graph vertex.
  std::vector<VertexId> temporal_vertices;
  /// Spatial hotspot id -> activity-graph vertex.
  std::vector<VertexId> spatial_vertices;
  /// Vocabulary word id -> activity-graph vertex (kInvalidVertex when the
  /// word never survived into the graph).
  std::vector<VertexId> word_vertices;
  /// User id -> user vertex in the activity graph.
  std::unordered_map<int64_t, VertexId> activity_users;
  /// User id -> vertex in the user interaction graph.
  std::unordered_map<int64_t, VertexId> interaction_users;
  /// Per-record unit ids, aligned with the corpus record order.
  std::vector<RecordUnits> record_units;
};

/// Constructs the activity graph and user interaction graph from a
/// tokenized corpus and its detected hotspots. Edge weights are
/// co-occurrence counts (activity graph) and mention counts (user graph).
/// Both graphs are returned finalized. InvalidArgument, naming the record,
/// when a record's timestamp or location is not finite.
Result<BuiltGraphs> BuildGraphs(const TokenizedCorpus& corpus,
                                const Hotspots& hotspots,
                                const GraphBuildOptions& options = {});

}  // namespace actor

#endif  // ACTOR_GRAPH_GRAPH_BUILDER_H_
