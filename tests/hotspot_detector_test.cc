#include "hotspot/hotspot_detector.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "data/synthetic.h"
#include "util/rng.h"

namespace actor {
namespace {

TEST(SpatialHotspotsTest, AssignNearest) {
  SpatialHotspots hotspots({{0, 0}, {10, 10}, {20, 0}});
  EXPECT_EQ(hotspots.Assign({1, 1}), 0);
  EXPECT_EQ(hotspots.Assign({9, 11}), 1);
  EXPECT_EQ(hotspots.Assign({19, -1}), 2);
  EXPECT_EQ(hotspots.size(), 3u);
}

TEST(SpatialHotspotsTest, AssignEmptyIsMinusOne) {
  SpatialHotspots hotspots({});
  EXPECT_EQ(hotspots.Assign({0, 0}), -1);
}

TEST(TemporalHotspotsTest, AssignCircularNearest) {
  TemporalHotspots hotspots({1.0, 12.0, 23.0});
  EXPECT_EQ(hotspots.AssignHour(0.5), 0);
  EXPECT_EQ(hotspots.AssignHour(11.0), 1);
  // 23.9 is circularly nearer to 23.0 than to 1.0.
  EXPECT_EQ(hotspots.AssignHour(23.9), 2);
  // 0.1 is 0.9 from 1.0 and 1.1 from 23.0 -> hotspot 0.
  EXPECT_EQ(hotspots.AssignHour(0.1), 0);
}

TEST(TemporalHotspotsTest, AssignFromTimestamp) {
  TemporalHotspots hotspots({6.0, 18.0});
  // Day 3 at 05:30.
  EXPECT_EQ(hotspots.Assign(3 * kSecondsPerDay + 5.5 * 3600.0), 0);
  EXPECT_EQ(hotspots.Assign(19.0 * 3600.0), 1);
}

TEST(TemporalHotspotsTest, AssignEmptyIsMinusOne) {
  TemporalHotspots hotspots({});
  EXPECT_EQ(hotspots.Assign(0.0), -1);
}

TEST(DetectHotspotsTest, NonFiniteLocationIsErrorNamingTheRecord) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const GeoPoint& bad : {GeoPoint{nan, 1.0}, GeoPoint{1.0, inf}}) {
    auto hotspots = DetectSpatialHotspots({{0.0, 0.0}, bad, {2.0, 2.0}},
                                          MeanShiftOptions{});
    EXPECT_TRUE(hotspots.status().IsInvalidArgument());
    EXPECT_NE(hotspots.status().message().find("record 1"), std::string::npos)
        << hotspots.status().ToString();
  }
}

TEST(DetectHotspotsTest, NonFiniteTimestampIsErrorNamingTheRecord) {
  // Mean shift on the hour circle would cast the NaN hour to a bin index.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     -std::numeric_limits<double>::infinity()}) {
    auto hotspots = DetectTemporalHotspots({3 * 3600.0, bad, 4 * 3600.0},
                                           MeanShiftOptions{});
    EXPECT_TRUE(hotspots.status().IsInvalidArgument());
    EXPECT_NE(hotspots.status().message().find("record 1"), std::string::npos)
        << hotspots.status().ToString();
  }
}

TEST(DetectHotspotsTest, FindsVenueAndTimeStructure) {
  SyntheticConfig config;
  config.seed = 99;
  config.num_records = 3000;
  config.num_users = 100;
  config.num_communities = 4;
  config.num_topics = 4;
  config.num_venues = 8;
  config.community_spread_km = 3.0;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  CorpusBuildOptions build;
  build.min_word_count = 1;
  auto corpus = TokenizedCorpus::Build(ds->corpus, build);
  ASSERT_TRUE(corpus.ok());

  auto hotspots = DetectHotspots(*corpus);
  ASSERT_TRUE(hotspots.ok()) << hotspots.status().ToString();
  // Spatial hotspots should be on the order of the venue count (some
  // venues merge when close together).
  EXPECT_GE(hotspots->spatial.size(), 2u);
  EXPECT_LE(hotspots->spatial.size(), 40u);
  // Temporal hotspots on the order of the topic count.
  EXPECT_GE(hotspots->temporal.size(), 1u);
  EXPECT_LE(hotspots->temporal.size(), 24u);

  // Every record must be assignable.
  for (const auto& rec : corpus->records()) {
    EXPECT_GE(hotspots->spatial.Assign(rec.location), 0);
    EXPECT_GE(hotspots->temporal.Assign(rec.timestamp), 0);
  }
}

TEST(DetectHotspotsTest, HotspotNearEachBusyVenue) {
  SyntheticConfig config;
  config.seed = 7;
  config.num_records = 4000;
  config.num_users = 50;
  config.num_communities = 3;
  config.num_topics = 3;
  config.num_venues = 5;
  config.community_spread_km = 8.0;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  CorpusBuildOptions build;
  build.min_word_count = 1;
  auto corpus = TokenizedCorpus::Build(ds->corpus, build);
  ASSERT_TRUE(corpus.ok());
  auto hotspots = DetectHotspots(*corpus);
  ASSERT_TRUE(hotspots.ok());

  // Count records per venue; every venue with >5% of the records should
  // have a hotspot within ~1 km.
  std::vector<int> venue_counts(config.num_venues, 0);
  for (int v : ds->truth.record_venues) ++venue_counts[v];
  for (int v = 0; v < config.num_venues; ++v) {
    if (venue_counts[v] < static_cast<int>(0.05 * ds->corpus.size())) continue;
    const GeoPoint& loc = ds->truth.venue_locations[v];
    double best = 1e9;
    for (const auto& c : hotspots->spatial.centers()) {
      best = std::min(best, Distance(c, loc));
    }
    EXPECT_LT(best, 1.5) << "venue " << v;
  }
}

TEST(DetectHotspotsTest, DeterministicAcrossRuns) {
  SyntheticConfig config;
  config.num_records = 800;
  config.num_users = 40;
  config.num_venues = 6;
  config.num_topics = 3;
  config.num_communities = 3;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  CorpusBuildOptions build;
  build.min_word_count = 1;
  auto corpus = TokenizedCorpus::Build(ds->corpus, build);
  ASSERT_TRUE(corpus.ok());
  auto a = DetectHotspots(*corpus);
  auto b = DetectHotspots(*corpus);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->spatial.size(), b->spatial.size());
  ASSERT_EQ(a->temporal.size(), b->temporal.size());
  for (std::size_t i = 0; i < a->spatial.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->spatial.center(i).x, b->spatial.center(i).x);
  }
}

}  // namespace
}  // namespace actor
