#ifndef ACTOR_EVAL_PIPELINE_H_
#define ACTOR_EVAL_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "data/corpus.h"
#include "data/synthetic.h"
#include "graph/graph_builder.h"
#include "hotspot/hotspot_detector.h"
#include "serve/model_snapshot.h"
#include "util/result.h"

namespace actor {

/// End-to-end preparation options: dataset generation through graph
/// construction (Algorithm 1, lines 1-2, plus the §6.1.1 splits).
struct PipelineOptions {
  SyntheticConfig synthetic;
  CorpusBuildOptions corpus;
  HotspotOptions hotspots;
  GraphBuildOptions graph;
  /// Validation / test fractions of the tokenized corpus.
  double valid_fraction = 0.05;
  double test_fraction = 0.10;
  uint64_t split_seed = 1234;
};

/// Everything the experiments need for one dataset. Hotspots, graphs, and
/// the vocabulary are held by shared_ptr-to-const so trained models can be
/// published as ModelSnapshots that share (rather than outlive-contract)
/// them; they are immutable once PrepareDataset returns.
struct PreparedDataset {
  std::string name;
  SyntheticDataset dataset;  // raw records + generator ground truth
  TokenizedCorpus full;      // shared vocabulary over the whole corpus
  CorpusSplit split;
  TokenizedCorpus train;
  TokenizedCorpus test;
  std::shared_ptr<const Hotspots> hotspots;    // detected on the train split
  std::shared_ptr<const BuiltGraphs> graphs;   // built on the train split
  std::shared_ptr<const Vocabulary> vocab;     // copy of full.vocab()

  /// Publishes `center` together with this dataset's graphs / hotspots /
  /// vocabulary as an immutable serving snapshot (copy-on-publish; see
  /// docs/serving.md). The usual way to stand up a QueryEngine or
  /// EmbeddingCrossModalModel after TrainActor.
  std::shared_ptr<const ModelSnapshot> Snapshot(
      const EmbeddingMatrix& center, uint64_t version = 0) const;
};

/// Runs the full preparation pipeline.
Result<PreparedDataset> PrepareDataset(const PipelineOptions& options,
                                       const std::string& name);

/// Pipeline presets for the three paper-like datasets. `scale` multiplies
/// the generated corpus size (1.0 ≈ tens of thousands of records; the
/// paper's corpora are 20-50x larger, see DESIGN.md §2).
PipelineOptions UTGeoPipeline(double scale = 1.0);
PipelineOptions TweetPipeline(double scale = 1.0);
PipelineOptions FourSqPipeline(double scale = 1.0);

}  // namespace actor

#endif  // ACTOR_EVAL_PIPELINE_H_
