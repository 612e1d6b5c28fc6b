// Extension experiment (not a paper table): streaming / recency-aware
// ACTOR, the online direction the paper cites as ReAct [8]. A city's
// activity regime shifts mid-stream (the same keywords move to different
// venues and hours); we compare, prequentially (train on batches <= i,
// test location-MRR on batch i+1):
//
//   online(decay)    — OnlineActor with recency decay
//   online(no-decay) — OnlineActor that never forgets
//   frozen           — bootstrapped on the first batch only
//
// Expected shape: comparable in the stationary regime; after the shift the
// decaying model recovers fastest, the frozen model stays degraded.
//
// Run:  ./streaming_activity [--records=8000] [--batches=8]
//                            [--samples_per_edge_per_batch=3]
//
// The last lines give each variant's mean prequential MRR over the stream
// and the decaying model's total Ingest() time, one row of the
// samples_per_edge_per_batch tuning table in docs/streaming.md.

#include <cstdio>
#include <vector>

#include "core/online_actor.h"
#include "data/synthetic.h"
#include "eval/mrr.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

using actor::TokenizedRecord;

/// Location-prediction MRR of `model` on `test` (1 truth + 10 noise).
double PrequentialLocationMrr(const actor::OnlineActor& model,
                              const std::vector<TokenizedRecord>& test,
                              uint64_t seed) {
  actor::Rng rng(seed);
  std::vector<int> ranks;
  for (std::size_t q = 0; q < std::min<std::size_t>(test.size(), 400); ++q) {
    const actor::VertexId truth_unit = model.SpatialUnit(test[q].location);
    if (truth_unit == actor::kInvalidVertex) continue;
    const double truth = model.ScoreRecordAgainstUnit(test[q], truth_unit);
    std::vector<double> noise;
    for (int n = 0; n < 10; ++n) {
      const auto& other = test[rng.Uniform(test.size())];
      noise.push_back(model.ScoreRecordAgainstUnit(
          test[q], model.SpatialUnit(other.location)));
    }
    ranks.push_back(actor::RankOfTruth(truth, noise));
  }
  return actor::MeanReciprocalRank(ranks);
}

}  // namespace

int main(int argc, char** argv) {
  actor::Flags flags(argc, argv);
  const int records = static_cast<int>(flags.GetInt("records", 8000));
  const int batches = static_cast<int>(flags.GetInt("batches", 8));
  const double samples_per_edge =
      flags.GetDouble("samples_per_edge_per_batch", 3.0);

  // Two regimes with identical vocabulary namespaces but different latent
  // structure (venue placement, topic hours): the same tokens change
  // meaning at the regime boundary.
  actor::SyntheticConfig regime_a;
  regime_a.seed = 100;
  regime_a.num_records = records / 2;
  regime_a.num_users = 400;
  regime_a.num_topics = 12;
  regime_a.num_venues = 80;
  regime_a.num_communities = 8;
  actor::SyntheticConfig regime_b = regime_a;
  regime_b.seed = 200;

  auto a = actor::GenerateSynthetic(regime_a, "regimeA");
  a.status().CheckOK();
  auto b = actor::GenerateSynthetic(regime_b, "regimeB");
  b.status().CheckOK();
  actor::Corpus combined = a->corpus;
  for (actor::RawRecord rec : b->corpus.records()) {
    rec.id += records;  // keep ids unique
    combined.Add(std::move(rec));
  }
  actor::CorpusBuildOptions build;
  auto corpus = actor::TokenizedCorpus::Build(combined, build);
  corpus.status().CheckOK();

  // Batches in stream order: first half regime A, second half regime B.
  std::vector<std::vector<TokenizedRecord>> stream(batches);
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    stream[i * batches / corpus->size()].push_back(corpus->record(i));
  }

  actor::OnlineActorOptions decay_options;
  decay_options.dim = 32;
  decay_options.decay_per_batch = 0.6;
  decay_options.samples_per_edge_per_batch = samples_per_edge;
  actor::OnlineActorOptions keep_options = decay_options;
  keep_options.decay_per_batch = 1.0;

  auto online_decay = actor::OnlineActor::Create(decay_options);
  auto online_keep = actor::OnlineActor::Create(keep_options);
  auto frozen = actor::OnlineActor::Create(keep_options);
  online_decay.status().CheckOK();
  online_keep.status().CheckOK();
  frozen.status().CheckOK();

  std::printf("Streaming extension: prequential location MRR per batch\n");
  std::printf("(regime shift after batch %d; 11-candidate ranking)\n\n",
              batches / 2 - 1);
  std::printf("%6s %6s %14s %18s %10s\n", "batch", "regime", "online(decay)",
              "online(no-decay)", "frozen");
  double ingest_s = 0.0;
  double sum_decay = 0.0, sum_keep = 0.0, sum_frozen = 0.0;
  for (int i = 0; i + 1 < batches; ++i) {
    const actor::Stopwatch ingest;
    online_decay->Ingest(stream[i]).CheckOK();
    ingest_s += ingest.ElapsedSeconds();
    online_keep->Ingest(stream[i]).CheckOK();
    if (i == 0) frozen->Ingest(stream[i]).CheckOK();
    const auto& next = stream[i + 1];
    const double mrr_decay = PrequentialLocationMrr(*online_decay, next, 7 + i);
    const double mrr_keep = PrequentialLocationMrr(*online_keep, next, 7 + i);
    const double mrr_frozen = PrequentialLocationMrr(*frozen, next, 7 + i);
    sum_decay += mrr_decay;
    sum_keep += mrr_keep;
    sum_frozen += mrr_frozen;
    std::printf("%6d %6s %14.4f %18.4f %10.4f\n", i,
                i < batches / 2 ? "A" : "B", mrr_decay, mrr_keep,
                mrr_frozen);
  }
  const double n = static_cast<double>(batches - 1);
  std::printf("%13s %14.4f %18.4f %10.4f\n", "mean", sum_decay / n,
              sum_keep / n, sum_frozen / n);
  std::printf("\nsamples_per_edge_per_batch=%g: online(decay) ingest %.3f s "
              "over %d batches\n",
              samples_per_edge, ingest_s, batches - 1);
  std::printf("\nunits: decay=%d keep=%d frozen=%d; live edges: decay=%zu "
              "keep=%zu\n",
              online_decay->num_units(), online_keep->num_units(),
              frozen->num_units(), online_decay->num_live_edges(),
              online_keep->num_live_edges());
  return 0;
}
