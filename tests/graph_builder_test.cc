#include "graph/graph_builder.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "data/corpus.h"

namespace actor {
namespace {

/// The paper's Fig. 1 scenario: two records in different places/times;
/// record 1 (user B) mentions user A.
Corpus Fig1Corpus() {
  Corpus c;
  RawRecord a;
  a.id = 0;
  a.user_id = 100;  // user A
  a.timestamp = 15.25 * 3600.0;  // 3:15 PM
  a.location = {5.0, 5.0};
  a.text = "dawn planet apes coming";
  c.Add(a);
  RawRecord b;
  b.id = 1;
  b.user_id = 200;  // user B
  b.timestamp = 20.55 * 3600.0;  // 8:33 PM
  b.location = {20.0, 20.0};
  b.text = "movie theatre discounts";
  b.mentioned_user_ids = {100};  // B mentions A
  c.Add(b);
  return c;
}

struct BuiltFixture {
  TokenizedCorpus corpus;
  Hotspots hotspots;
  BuiltGraphs graphs;
};

BuiltFixture BuildFig1(const GraphBuildOptions& options = {}) {
  CorpusBuildOptions build;
  build.min_word_count = 1;
  auto corpus = TokenizedCorpus::Build(Fig1Corpus(), build);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  HotspotOptions hs;
  hs.spatial.bandwidth = 2.0;
  hs.spatial.merge_radius = 1.0;
  hs.temporal.bandwidth = 1.0;
  hs.temporal.merge_radius = 0.5;
  auto hotspots = DetectHotspots(*corpus, hs);
  EXPECT_TRUE(hotspots.ok()) << hotspots.status().ToString();
  auto graphs = BuildGraphs(*corpus, *hotspots, options);
  EXPECT_TRUE(graphs.ok()) << graphs.status().ToString();
  BuiltFixture f{corpus.MoveValueOrDie(), hotspots.MoveValueOrDie(),
                 graphs.MoveValueOrDie()};
  return f;
}

TEST(GraphBuilderTest, Fig1VertexInventory) {
  BuiltFixture f = BuildFig1();
  // Two distinct locations and two distinct times -> 2 spatial + 2
  // temporal hotspots.
  EXPECT_EQ(f.hotspots.spatial.size(), 2u);
  EXPECT_EQ(f.hotspots.temporal.size(), 2u);
  const Heterograph& g = f.graphs.activity;
  EXPECT_EQ(g.VerticesOfType(VertexType::kTime).size(), 2u);
  EXPECT_EQ(g.VerticesOfType(VertexType::kLocation).size(), 2u);
  // 7 distinct keywords.
  EXPECT_EQ(g.VerticesOfType(VertexType::kWord).size(), 7u);
  // Users A and B.
  EXPECT_EQ(g.VerticesOfType(VertexType::kUser).size(), 2u);
}

TEST(GraphBuilderTest, Fig1IntraRecordEdges) {
  BuiltFixture f = BuildFig1();
  const Heterograph& g = f.graphs.activity;
  const auto& units0 = f.graphs.record_units[0];
  const auto& units1 = f.graphs.record_units[1];
  // Records land in different hotspots.
  EXPECT_NE(units0.time_unit, units1.time_unit);
  EXPECT_NE(units0.location_unit, units1.location_unit);
  // T-L edge within each record.
  EXPECT_DOUBLE_EQ(g.EdgeWeight(units0.time_unit, units0.location_unit), 1.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(units1.time_unit, units1.location_unit), 1.0);
  // No cross-record T-L edge.
  EXPECT_DOUBLE_EQ(g.EdgeWeight(units0.time_unit, units1.location_unit), 0.0);
  // Every word of record 0 is linked to its T and L.
  for (VertexId w : units0.word_units) {
    EXPECT_DOUBLE_EQ(g.EdgeWeight(w, units0.time_unit), 1.0);
    EXPECT_DOUBLE_EQ(g.EdgeWeight(w, units0.location_unit), 1.0);
  }
  // Word pairs within record 0.
  ASSERT_EQ(units0.word_units.size(), 4u);
  EXPECT_DOUBLE_EQ(
      g.EdgeWeight(units0.word_units[0], units0.word_units[1]), 1.0);
}

TEST(GraphBuilderTest, Fig1MentionedUserLinksToRecordUnits) {
  BuiltFixture f = BuildFig1();
  const Heterograph& g = f.graphs.activity;
  const auto& units1 = f.graphs.record_units[1];
  const VertexId user_a = f.graphs.activity_users.at(100);
  const VertexId user_b = f.graphs.activity_users.at(200);
  // Record 1's units connect to both its author B and mentioned user A —
  // the high-order bridge "text -> user -> user -> (location, time)".
  EXPECT_DOUBLE_EQ(g.EdgeWeight(user_b, units1.time_unit), 1.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(user_a, units1.time_unit), 1.0);
  EXPECT_DOUBLE_EQ(g.EdgeWeight(user_a, units1.location_unit), 1.0);
  for (VertexId w : units1.word_units) {
    EXPECT_DOUBLE_EQ(g.EdgeWeight(user_a, w), 1.0);
  }
  // User A also connects to their own record's units.
  const auto& units0 = f.graphs.record_units[0];
  EXPECT_DOUBLE_EQ(g.EdgeWeight(user_a, units0.time_unit), 1.0);
}

TEST(GraphBuilderTest, Fig1UserInteractionGraph) {
  BuiltFixture f = BuildFig1();
  const Heterograph& ug = f.graphs.user_graph;
  ASSERT_EQ(f.graphs.interaction_users.size(), 2u);
  const VertexId a = f.graphs.interaction_users.at(100);
  const VertexId b = f.graphs.interaction_users.at(200);
  EXPECT_DOUBLE_EQ(ug.EdgeWeight(a, b), 1.0);
  EXPECT_EQ(ug.edges(EdgeType::kUU).size(), 2u);
}

TEST(GraphBuilderTest, RepeatedMentionsAccumulate) {
  Corpus c = Fig1Corpus();
  RawRecord extra;
  extra.id = 2;
  extra.user_id = 200;
  extra.timestamp = 21.0 * 3600.0;
  extra.location = {20.0, 20.0};
  extra.text = "another movie night";
  extra.mentioned_user_ids = {100};
  c.Add(extra);
  CorpusBuildOptions build;
  build.min_word_count = 1;
  auto corpus = TokenizedCorpus::Build(c, build);
  ASSERT_TRUE(corpus.ok());
  auto hotspots = DetectHotspots(*corpus);
  ASSERT_TRUE(hotspots.ok());
  auto graphs = BuildGraphs(*corpus, *hotspots);
  ASSERT_TRUE(graphs.ok());
  const VertexId a = graphs->interaction_users.at(100);
  const VertexId b = graphs->interaction_users.at(200);
  EXPECT_DOUBLE_EQ(graphs->user_graph.EdgeWeight(a, b), 2.0);
}

TEST(GraphBuilderTest, MentionEdgesCanBeDisabled) {
  GraphBuildOptions options;
  options.include_mention_edges = false;
  BuiltFixture f = BuildFig1(options);
  const auto& units1 = f.graphs.record_units[1];
  const VertexId user_a = f.graphs.activity_users.at(100);
  EXPECT_DOUBLE_EQ(
      f.graphs.activity.EdgeWeight(user_a, units1.time_unit), 0.0);
  // The user interaction graph is still built.
  EXPECT_EQ(f.graphs.user_graph.edges(EdgeType::kUU).size(), 2u);
}

TEST(GraphBuilderTest, AuthorEdgesCanBeDisabled) {
  GraphBuildOptions options;
  options.include_author_edges = false;
  options.include_mention_edges = false;
  BuiltFixture f = BuildFig1(options);
  EXPECT_EQ(f.graphs.activity.edges(EdgeType::kUT).size(), 0u);
  EXPECT_EQ(f.graphs.activity.edges(EdgeType::kUW).size(), 0u);
  EXPECT_EQ(f.graphs.activity.edges(EdgeType::kUL).size(), 0u);
}

TEST(GraphBuilderTest, WordPairEdgesCanBeDisabled) {
  GraphBuildOptions options;
  options.include_word_pair_edges = false;
  BuiltFixture f = BuildFig1(options);
  EXPECT_EQ(f.graphs.activity.edges(EdgeType::kWW).size(), 0u);
  EXPECT_GT(f.graphs.activity.edges(EdgeType::kLW).size(), 0u);
}

TEST(GraphBuilderTest, WordVerticesAlignWithVocabulary) {
  BuiltFixture f = BuildFig1();
  ASSERT_EQ(f.graphs.word_vertices.size(),
            static_cast<std::size_t>(f.corpus.vocab().size()));
  for (int32_t w = 0; w < f.corpus.vocab().size(); ++w) {
    const VertexId v = f.graphs.word_vertices[w];
    ASSERT_NE(v, kInvalidVertex);
    EXPECT_EQ(f.graphs.activity.vertex_name(v), f.corpus.vocab().word(w));
  }
}

TEST(GraphBuilderTest, RecordUnitsAlignWithCorpus) {
  BuiltFixture f = BuildFig1();
  ASSERT_EQ(f.graphs.record_units.size(), f.corpus.size());
  for (std::size_t i = 0; i < f.corpus.size(); ++i) {
    EXPECT_EQ(f.graphs.record_units[i].word_units.size(),
              f.corpus.record(i).word_ids.size());
  }
}

TEST(GraphBuilderTest, EmptyCorpusRejected) {
  TokenizedCorpus empty;
  Hotspots hotspots;
  EXPECT_TRUE(
      BuildGraphs(empty, hotspots).status().IsInvalidArgument());
}

TEST(GraphBuilderTest, NonFiniteRecordIsErrorNamingTheRecord) {
  // Hotspots from a clean corpus; a non-finite record resolves to no
  // hotspot, which must not index the vertex tables.
  const BuiltFixture clean = BuildFig1();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (int field = 0; field < 3; ++field) {
    Corpus c = Fig1Corpus();
    RawRecord r;
    r.id = 2;
    r.user_id = 300;
    r.timestamp = field == 0 ? nan : 3600.0;
    r.location = {field == 1 ? inf : 5.0, field == 2 ? nan : 5.0};
    r.text = "movie planet";
    c.Add(r);
    CorpusBuildOptions build;
    build.min_word_count = 1;
    auto corpus = TokenizedCorpus::Build(c, build);
    ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
    auto graphs = BuildGraphs(*corpus, clean.hotspots);
    EXPECT_TRUE(graphs.status().IsInvalidArgument()) << "field " << field;
    EXPECT_NE(graphs.status().message().find("record 2"), std::string::npos)
        << graphs.status().ToString();
  }
}

TEST(GraphBuilderTest, DuplicateWordsInRecordNoSelfLoop) {
  Corpus c;
  RawRecord r;
  r.id = 0;
  r.user_id = 1;
  r.timestamp = 3600.0;
  r.location = {1.0, 1.0};
  r.text = "coffee coffee coffee";
  c.Add(r);
  CorpusBuildOptions build;
  build.min_word_count = 1;
  auto corpus = TokenizedCorpus::Build(c, build);
  ASSERT_TRUE(corpus.ok());
  auto hotspots = DetectHotspots(*corpus);
  ASSERT_TRUE(hotspots.ok());
  auto graphs = BuildGraphs(*corpus, *hotspots);
  ASSERT_TRUE(graphs.ok()) << graphs.status().ToString();
  EXPECT_EQ(graphs->activity.edges(EdgeType::kWW).size(), 0u);
}

}  // namespace
}  // namespace actor
