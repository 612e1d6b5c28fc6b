#include "embedding/line.h"

#include <gtest/gtest.h>

#include <cmath>

#include "embedding/sgd.h"
#include "util/vec_math.h"

namespace actor {
namespace {

/// Two 4-cliques of words joined by a single weak bridge.
Heterograph TwoCliqueGraph() {
  Heterograph g;
  for (int i = 0; i < 8; ++i) {
    g.AddVertex(VertexType::kWord, "w" + std::to_string(i));
  }
  auto clique = [&](int base) {
    for (int i = 0; i < 4; ++i) {
      for (int j = i + 1; j < 4; ++j) {
        EXPECT_TRUE(g.AccumulateEdge(base + i, base + j, 10.0).ok());
      }
    }
  };
  clique(0);
  clique(4);
  EXPECT_TRUE(g.AccumulateEdge(0, 4, 0.1).ok());  // weak bridge
  EXPECT_TRUE(g.Finalize().ok());
  return g;
}

LineOptions FastOptions() {
  LineOptions o;
  o.dim = 16;
  o.total_samples = 200000;
  o.negatives = 3;
  o.seed = 5;
  return o;
}

TEST(LineTest, RequiresFinalizedGraph) {
  Heterograph g;
  EXPECT_TRUE(TrainLine(g, FastOptions()).status().IsFailedPrecondition());
}

TEST(LineTest, RejectsBadOptions) {
  Heterograph g = TwoCliqueGraph();
  LineOptions o = FastOptions();
  o.dim = 0;
  EXPECT_TRUE(TrainLine(g, o).status().IsInvalidArgument());
  o = FastOptions();
  o.negatives = kMaxNegatives + 1;
  EXPECT_TRUE(TrainLine(g, o).status().IsInvalidArgument());
}

TEST(LineTest, RejectsEmptyEdgeSelection) {
  Heterograph g = TwoCliqueGraph();
  LineOptions o = FastOptions();
  o.edge_types = {EdgeType::kUU};  // no such edges
  EXPECT_TRUE(TrainLine(g, o).status().IsInvalidArgument());
}

TEST(LineTest, OutputShapes) {
  Heterograph g = TwoCliqueGraph();
  auto result = TrainLine(g, FastOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->center.rows(), 8);
  EXPECT_EQ(result->center.dim(), 16);
  EXPECT_EQ(result->context.rows(), 8);
}

TEST(LineTest, SecondOrderSeparatesCliques) {
  Heterograph g = TwoCliqueGraph();
  auto result = TrainLine(g, FastOptions());
  ASSERT_TRUE(result.ok());
  // Average intra-clique cosine must exceed average inter-clique cosine.
  double intra = 0.0, inter = 0.0;
  int n_intra = 0, n_inter = 0;
  for (int i = 0; i < 8; ++i) {
    for (int j = i + 1; j < 8; ++j) {
      const double c =
          Cosine(result->center.row(i), result->center.row(j), 16);
      if ((i < 4) == (j < 4)) {
        intra += c;
        ++n_intra;
      } else {
        inter += c;
        ++n_inter;
      }
    }
  }
  EXPECT_GT(intra / n_intra, inter / n_inter + 0.2);
}

TEST(LineTest, EmbeddingsFinite) {
  Heterograph g = TwoCliqueGraph();
  auto result = TrainLine(g, FastOptions());
  ASSERT_TRUE(result.ok());
  for (int r = 0; r < 8; ++r) {
    for (int d = 0; d < 16; ++d) {
      EXPECT_TRUE(std::isfinite(result->center.row(r)[d]));
    }
  }
}

TEST(LineTest, DeterministicSingleThread) {
  Heterograph g = TwoCliqueGraph();
  LineOptions o = FastOptions();
  o.total_samples = 20000;
  auto a = TrainLine(g, o);
  auto b = TrainLine(g, o);
  ASSERT_TRUE(a.ok() && b.ok());
  for (int r = 0; r < 8; ++r) {
    for (int d = 0; d < 16; ++d) {
      EXPECT_FLOAT_EQ(a->center.row(r)[d], b->center.row(r)[d]);
    }
  }
}

TEST(LineTest, MultiThreadedRuns) {
  Heterograph g = TwoCliqueGraph();
  LineOptions o = FastOptions();
  o.num_threads = 3;
  auto result = TrainLine(g, o);
  ASSERT_TRUE(result.ok());
  const double intra =
      Cosine(result->center.row(0), result->center.row(1), 16);
  const double inter =
      Cosine(result->center.row(0), result->center.row(6), 16);
  EXPECT_GT(intra, inter);
}

TEST(LineTest, DerivesSampleBudgetFromEdges) {
  Heterograph g = TwoCliqueGraph();
  LineOptions o = FastOptions();
  o.total_samples = 0;
  o.samples_per_edge = 5;
  auto result = TrainLine(g, o);  // must not hang or crash
  ASSERT_TRUE(result.ok());
}

}  // namespace
}  // namespace actor
