// The word-sense disambiguation scenario of paper §1: the keyword "ape"
// means "imitate" alone but "gorilla" next to "planet" — i.e., an
// ambiguous keyword is resolved by the rest of the record. This test
// builds a handcrafted corpus with a polysemous keyword used at two
// venues in two senses and verifies that the full record context
// disambiguates predictions even though the ambiguous word has a single
// vector.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/actor.h"
#include "eval/cross_modal_model.h"
#include "eval/pipeline.h"
#include "serve/model_snapshot.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/vec_math.h"

namespace actor {
namespace {

/// Corpus: venue RIVER at (5, 5) mornings, text {bank, river|fishing|
/// water}; venue CITY at (30, 30) evenings, text {bank, money|loan|
/// credit}. "bank" appears in both senses equally often.
Corpus PolysemyCorpus(int per_venue) {
  Rng rng(7);
  Corpus corpus;
  const char* river_words[] = {"river", "fishing", "water", "shore"};
  const char* city_words[] = {"money", "loan", "credit", "teller"};
  int64_t id = 0;
  for (int i = 0; i < per_venue; ++i) {
    RawRecord river;
    river.id = id++;
    river.user_id = rng.Uniform(40);
    river.timestamp =
        rng.Uniform(30) * kSecondsPerDay + rng.Gaussian(9.0, 0.5) * 3600.0;
    river.location = {rng.Gaussian(5.0, 0.2), rng.Gaussian(5.0, 0.2)};
    river.text = StrPrintf("bank %s %s", river_words[rng.Uniform(4)],
                           river_words[rng.Uniform(4)]);
    corpus.Add(std::move(river));

    RawRecord city;
    city.id = id++;
    city.user_id = 40 + rng.Uniform(40);
    city.timestamp =
        rng.Uniform(30) * kSecondsPerDay + rng.Gaussian(19.0, 0.5) * 3600.0;
    city.location = {rng.Gaussian(30.0, 0.2), rng.Gaussian(30.0, 0.2)};
    city.text = StrPrintf("bank %s %s", city_words[rng.Uniform(4)],
                          city_words[rng.Uniform(4)]);
    corpus.Add(std::move(city));
  }
  return corpus;
}

class WsdScenarioTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    CorpusBuildOptions build;
    build.min_word_count = 1;
    auto corpus = TokenizedCorpus::Build(PolysemyCorpus(400), build);
    ASSERT_TRUE(corpus.ok());
    corpus_ = new TokenizedCorpus(corpus.MoveValueOrDie());
    auto hotspots = DetectHotspots(*corpus_);
    ASSERT_TRUE(hotspots.ok());
    hotspots_ = std::make_shared<const Hotspots>(hotspots.MoveValueOrDie());
    auto graphs = BuildGraphs(*corpus_, *hotspots_);
    ASSERT_TRUE(graphs.ok());
    graphs_ = std::make_shared<const BuiltGraphs>(graphs.MoveValueOrDie());
    ActorOptions options;
    options.dim = 16;
    options.epochs = 6;
    options.samples_per_edge = 20;
    options.negatives = 5;
    auto model = TrainActor(*graphs_, options);
    ASSERT_TRUE(model.ok());
    model_ = new ActorModel(model.MoveValueOrDie());
    snapshot_ = ModelSnapshot::FromBatch(model_->center, graphs_, hotspots_,
                                         /*vocab=*/nullptr, /*version=*/1);
  }
  static void TearDownTestSuite() {
    snapshot_.reset();
    delete model_;
    graphs_.reset();
    hotspots_.reset();
    delete corpus_;
    model_ = nullptr;
    corpus_ = nullptr;
  }

  static std::vector<int32_t> Words(
      const std::vector<std::string>& words) {
    std::vector<int32_t> ids;
    for (const auto& w : words) {
      const int32_t id = corpus_->vocab().Lookup(w);
      EXPECT_GE(id, 0) << w;
      ids.push_back(id);
    }
    return ids;
  }

  static TokenizedCorpus* corpus_;
  static std::shared_ptr<const Hotspots> hotspots_;
  static std::shared_ptr<const BuiltGraphs> graphs_;
  static ActorModel* model_;
  static std::shared_ptr<const ModelSnapshot> snapshot_;
};

TokenizedCorpus* WsdScenarioTest::corpus_ = nullptr;
std::shared_ptr<const Hotspots> WsdScenarioTest::hotspots_;
std::shared_ptr<const BuiltGraphs> WsdScenarioTest::graphs_;
ActorModel* WsdScenarioTest::model_ = nullptr;
std::shared_ptr<const ModelSnapshot> WsdScenarioTest::snapshot_;

TEST_F(WsdScenarioTest, BothVenuesDetected) {
  EXPECT_GE(hotspots_->spatial.size(), 2u);
  EXPECT_GE(hotspots_->temporal.size(), 2u);
}

TEST_F(WsdScenarioTest, ContextDisambiguatesLocation) {
  EmbeddingCrossModalModel scorer("ACTOR", snapshot_);
  const GeoPoint river_venue{5, 5};
  const GeoPoint city_venue{30, 30};
  const double morning = 9.0 * 3600.0;
  const double evening = 19.0 * 3600.0;
  // "bank fishing" belongs at the river; "bank loan" downtown — although
  // "bank" itself appears at both venues.
  const auto fishing = Words({"bank", "fishing"});
  const auto loan = Words({"bank", "loan"});
  EXPECT_GT(scorer.ScoreLocation(morning, fishing, river_venue),
            scorer.ScoreLocation(morning, fishing, city_venue));
  EXPECT_GT(scorer.ScoreLocation(evening, loan, city_venue),
            scorer.ScoreLocation(evening, loan, river_venue));
}

TEST_F(WsdScenarioTest, ContextDisambiguatesText) {
  EmbeddingCrossModalModel scorer("ACTOR", snapshot_);
  const GeoPoint river_venue{5, 5};
  const auto fishing = Words({"bank", "fishing"});
  const auto loan = Words({"bank", "loan"});
  // At the river in the morning, the fishing sense must outscore the loan
  // sense even though both candidates contain "bank".
  const double morning = 9.0 * 3600.0;
  EXPECT_GT(scorer.ScoreText(morning, river_venue, fishing),
            scorer.ScoreText(morning, river_venue, loan));
}

TEST_F(WsdScenarioTest, AmbiguousWordSitsBetweenSenses) {
  // The single "bank" vector must be meaningfully related to *both*
  // venues (it co-occurs with each), unlike the sense-specific words.
  EmbeddingCrossModalModel scorer("ACTOR", snapshot_);
  std::vector<float> bank_vec, river_loc, city_loc;
  ASSERT_TRUE(scorer.TextVector(Words({"bank"}), &bank_vec));
  ASSERT_TRUE(scorer.LocationVector({5, 5}, &river_loc));
  ASSERT_TRUE(scorer.LocationVector({30, 30}, &city_loc));
  const std::size_t dim = bank_vec.size();
  const float to_river = Cosine(bank_vec.data(), river_loc.data(), dim);
  const float to_city = Cosine(bank_vec.data(), city_loc.data(), dim);
  EXPECT_GT(to_river, 0.0f);
  EXPECT_GT(to_city, 0.0f);

  // A sense-exclusive word is clearly one-sided.
  std::vector<float> fishing_vec;
  ASSERT_TRUE(scorer.TextVector(Words({"fishing"}), &fishing_vec));
  const float fishing_river =
      Cosine(fishing_vec.data(), river_loc.data(), dim);
  const float fishing_city = Cosine(fishing_vec.data(), city_loc.data(), dim);
  EXPECT_GT(fishing_river, fishing_city);
  // "bank" is less one-sided than "fishing".
  EXPECT_LT(std::fabs(to_river - to_city),
            std::fabs(fishing_river - fishing_city));
}

}  // namespace
}  // namespace actor
