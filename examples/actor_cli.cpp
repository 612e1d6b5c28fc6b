// actor_cli: end-to-end command-line workflow for the library —
//
//   actor_cli generate --preset=utgeo --scale=0.25 --out=corpus.tsv
//       writes a synthetic corpus as TSV (see data/dataset_io.h).
//   actor_cli train --corpus=corpus.tsv --model=model_dir [--dim=32]
//       [--epochs=8] [--spe=10] [--negatives=5]
//       tokenizes, detects hotspots, builds graphs, trains ACTOR, and
//       persists the model (core/model_io.h).
//   actor_cli query --model=model_dir --unit=<name> [--type=W] [--k=10]
//       reloads the model and prints the nearest units of the requested
//       type; <name> is any unit name from vertices.tsv (a keyword, a
//       "T3(19:17)" temporal hotspot, an "L7(12.50,8.25)" location, or a
//       "user42").
//   actor_cli stats --corpus=corpus.tsv
//       prints corpus statistics (records, users, mention fraction).

#include <cstdio>
#include <cstring>
#include <string>

#include "core/actor.h"
#include "core/model_io.h"
#include "data/dataset_io.h"
#include "data/synthetic.h"
#include "eval/pipeline.h"
#include "util/flags.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: actor_cli <generate|train|query|stats> [--flags]\n"
               "see the header comment of examples/actor_cli.cpp\n");
  return 2;
}

int Generate(const actor::Flags& flags) {
  const std::string preset = flags.GetString("preset", "utgeo");
  const double scale = flags.GetDouble("scale", 0.25);
  const std::string out = flags.GetString("out", "corpus.tsv");
  actor::SyntheticConfig config;
  if (preset == "utgeo") {
    config = actor::UTGeoLikeConfig(scale);
  } else if (preset == "tweet") {
    config = actor::TweetLikeConfig(scale);
  } else if (preset == "4sq") {
    config = actor::FourSqLikeConfig(scale);
  } else {
    std::fprintf(stderr, "unknown preset '%s' (utgeo|tweet|4sq)\n",
                 preset.c_str());
    return 2;
  }
  if (flags.Has("seed")) config.seed = flags.GetInt("seed", 42);
  auto dataset = actor::GenerateSynthetic(config, preset);
  dataset.status().CheckOK();
  actor::SaveCorpusTsv(dataset->corpus, out).CheckOK();
  std::printf("wrote %zu records to %s (%.1f%% with mentions)\n",
              dataset->corpus.size(), out.c_str(),
              100.0 * dataset->corpus.MentionFraction());
  return 0;
}

int Train(const actor::Flags& flags) {
  const std::string corpus_path = flags.GetString("corpus", "corpus.tsv");
  const std::string model_dir = flags.GetString("model", "actor_model");
  auto corpus = actor::LoadCorpusTsv(corpus_path);
  corpus.status().CheckOK();
  auto tokenized = actor::TokenizedCorpus::Build(*corpus);
  tokenized.status().CheckOK();
  auto hotspots = actor::DetectHotspots(*tokenized);
  hotspots.status().CheckOK();
  auto graphs = actor::BuildGraphs(*tokenized, *hotspots);
  graphs.status().CheckOK();

  actor::ActorOptions options;
  options.dim = static_cast<int32_t>(flags.GetInt("dim", 32));
  options.epochs = static_cast<int>(flags.GetInt("epochs", 8));
  options.samples_per_edge = static_cast<int>(flags.GetInt("spe", 10));
  options.negatives = static_cast<int>(flags.GetInt("negatives", 5));
  options.num_threads = static_cast<int>(flags.GetInt("threads", 1));
  auto model = actor::TrainActor(*graphs, options);
  model.status().CheckOK();
  actor::SaveActorModel(*model, *graphs, model_dir).CheckOK();
  std::printf(
      "trained on %zu records (%zu spatial + %zu temporal hotspots, "
      "|V|=%d) in %.1fs; model saved to %s\n",
      tokenized->size(), hotspots->spatial.size(), hotspots->temporal.size(),
      graphs->activity.num_vertices(),
      model->stats.pretrain_seconds + model->stats.train_seconds,
      model_dir.c_str());
  return 0;
}

int Query(const actor::Flags& flags) {
  const std::string model_dir = flags.GetString("model", "actor_model");
  const std::string unit = flags.GetString("unit", "");
  if (unit.empty()) {
    std::fprintf(stderr, "query requires --unit=<name>\n");
    return 2;
  }
  auto model = actor::LoadedModel::Load(model_dir);
  model.status().CheckOK();
  const actor::VertexId v = model->Lookup(unit);
  if (v == actor::kInvalidVertex) {
    std::fprintf(stderr, "unit '%s' not found in %s/vertices.tsv\n",
                 unit.c_str(), model_dir.c_str());
    return 1;
  }
  const std::string type_str = flags.GetString("type", "W");
  actor::VertexType type = actor::VertexType::kWord;
  if (type_str == "T") type = actor::VertexType::kTime;
  if (type_str == "L") type = actor::VertexType::kLocation;
  if (type_str == "U") type = actor::VertexType::kUser;
  const int k = static_cast<int>(flags.GetInt("k", 10));
  auto nearest = model->NearestOfType(v, type, k);
  if (!nearest.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 nearest.status().ToString().c_str());
    return 1;
  }
  std::printf("nearest %s-units to '%s' [%s]:\n", type_str.c_str(),
              unit.c_str(), actor::VertexTypeName(model->vertex_type(v)));
  for (const auto& n : *nearest) {
    std::printf("  %-30s %.3f\n", n.name.c_str(), n.similarity);
  }
  return 0;
}

int Stats(const actor::Flags& flags) {
  const std::string corpus_path = flags.GetString("corpus", "corpus.tsv");
  auto corpus = actor::LoadCorpusTsv(corpus_path);
  corpus.status().CheckOK();
  auto tokenized = actor::TokenizedCorpus::Build(*corpus);
  tokenized.status().CheckOK();
  std::printf("records: %zu (tokenized %zu), users: %zu, vocab: %d, "
              "mentions: %.1f%%\n",
              corpus->size(), tokenized->size(), corpus->CountDistinctUsers(),
              tokenized->vocab().size(),
              100.0 * corpus->MentionFraction());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  actor::Flags flags(argc, argv);
  if (command == "generate") return Generate(flags);
  if (command == "train") return Train(flags);
  if (command == "query") return Query(flags);
  if (command == "stats") return Stats(flags);
  return Usage();
}
