#include "eval/pipeline.h"

#include <algorithm>

#include "util/logging.h"

namespace actor {

Result<PreparedDataset> PrepareDataset(const PipelineOptions& options,
                                       const std::string& name) {
  PreparedDataset out;
  out.name = name;
  ACTOR_ASSIGN_OR_RETURN(out.dataset,
                         GenerateSynthetic(options.synthetic, name));
  ACTOR_ASSIGN_OR_RETURN(
      out.full, TokenizedCorpus::Build(out.dataset.corpus, options.corpus));

  const std::size_t n = out.full.size();
  const std::size_t valid_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.valid_fraction * n));
  const std::size_t test_size = std::max<std::size_t>(
      1, static_cast<std::size_t>(options.test_fraction * n));
  ACTOR_ASSIGN_OR_RETURN(
      out.split, RandomSplit(n, valid_size, test_size, options.split_seed));
  out.train = Subset(out.full, out.split.train);
  out.test = Subset(out.full, out.split.test);

  ACTOR_ASSIGN_OR_RETURN(Hotspots hotspots,
                         DetectHotspots(out.train, options.hotspots));
  out.hotspots = std::make_shared<const Hotspots>(std::move(hotspots));
  ACTOR_ASSIGN_OR_RETURN(
      BuiltGraphs graphs,
      BuildGraphs(out.train, *out.hotspots, options.graph));
  out.graphs = std::make_shared<const BuiltGraphs>(std::move(graphs));
  out.vocab = std::make_shared<const Vocabulary>(out.full.vocab());
  return out;
}

std::shared_ptr<const ModelSnapshot> PreparedDataset::Snapshot(
    const EmbeddingMatrix& center, uint64_t version) const {
  return ModelSnapshot::FromBatch(center, graphs, hotspots, vocab, version);
}

PipelineOptions UTGeoPipeline(double scale) {
  PipelineOptions p;
  p.synthetic = UTGeoLikeConfig(scale);
  return p;
}

PipelineOptions TweetPipeline(double scale) {
  PipelineOptions p;
  p.synthetic = TweetLikeConfig(scale);
  return p;
}

PipelineOptions FourSqPipeline(double scale) {
  PipelineOptions p;
  p.synthetic = FourSqLikeConfig(scale);
  p.corpus.max_vocab_size = 4000;  // 4SQ's small check-in vocabulary
  return p;
}

}  // namespace actor
