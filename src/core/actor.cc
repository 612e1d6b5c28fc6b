#include "core/actor.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/meta_graph.h"
#include "embedding/negative_sampler.h"
#include "embedding/sgd.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/vec_math.h"

namespace actor {
namespace {

/// Rows of dim floats in one shard's TrainRecordBagOfWords scratch.
constexpr std::size_t kRecordScratchRows = 4;

Status ValidateOptions(const ActorOptions& options) {
  if (options.dim <= 0) return Status::InvalidArgument("dim must be positive");
  if (options.negatives < 1) {
    return Status::InvalidArgument("negatives must be >= 1");
  }
  ACTOR_RETURN_NOT_OK(ValidateNegatives(options.negatives));
  if (options.initial_lr <= 0.0f) {
    return Status::InvalidArgument("learning rate must be positive");
  }
  if (options.epochs <= 0 || options.samples_per_edge <= 0) {
    return Status::InvalidArgument("epochs/samples_per_edge must be positive");
  }
  return Status::OK();
}

/// The U-edge type that connects a unit of the given type to users.
EdgeType UserEdgeTypeFor(VertexType unit) {
  switch (unit) {
    case VertexType::kTime:
      return EdgeType::kUT;
    case VertexType::kLocation:
      return EdgeType::kUL;
    case VertexType::kWord:
      return EdgeType::kUW;
    case VertexType::kUser:
      return EdgeType::kUU;
  }
  return EdgeType::kUU;
}

/// Algorithm 1 line 4: initialize every activity-graph vertex from its
/// strongest-connected user's pre-trained vector; vertices with no user
/// connection (and users absent from the interaction graph) keep their
/// random initialization.
void InitializeFromUserEmbeddings(const BuiltGraphs& graphs,
                                  const LineEmbedding& user_embedding,
                                  Rng& rng, EmbeddingMatrix* center,
                                  EmbeddingMatrix* context) {
  const int32_t dim = center->dim();
  // Activity-graph user vertex -> interaction-graph row.
  std::unordered_map<VertexId, VertexId> act_to_int;
  act_to_int.reserve(graphs.activity_users.size());
  for (const auto& [user_id, act_v] : graphs.activity_users) {
    auto it = graphs.interaction_users.find(user_id);
    if (it != graphs.interaction_users.end()) {
      act_to_int.emplace(act_v, it->second);
    }
  }
  auto seed_row = [&](EmbeddingMatrix* m, VertexId v, const float* user_vec) {
    // Pre-trained user vector plus a small symmetry-breaking jitter so
    // vertices sharing a user do not start exactly coincident.
    float* row = m->row(v);
    const float scale = 0.1f / static_cast<float>(dim);
    for (int32_t d = 0; d < dim; ++d) {
      row[d] = user_vec[d] + (rng.UniformFloat() - 0.5f) * scale;
    }
  };

  const Heterograph& g = graphs.activity;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const VertexType vt = g.vertex_type(v);
    const float* user_vec = nullptr;
    if (vt == VertexType::kUser) {
      auto it = act_to_int.find(v);
      if (it != act_to_int.end()) {
        user_vec = user_embedding.center.row(it->second);
      }
    } else {
      // Choose the user with the highest connection weight (paper §5.2.1).
      const EdgeType e = UserEdgeTypeFor(vt);
      const auto neighbors = g.Neighbors(e, v);
      const auto weights = g.NeighborWeights(e, v);
      double best_w = 0.0;
      VertexId best_user = kInvalidVertex;
      for (std::size_t i = 0; i < neighbors.size(); ++i) {
        if (g.vertex_type(neighbors[i]) == VertexType::kUser &&
            weights[i] > best_w) {
          best_w = weights[i];
          best_user = neighbors[i];
        }
      }
      if (best_user != kInvalidVertex) {
        auto it = act_to_int.find(best_user);
        if (it != act_to_int.end()) {
          user_vec = user_embedding.center.row(it->second);
        }
      }
    }
    if (user_vec != nullptr) {
      seed_row(center, v, user_vec);
      seed_row(context, v, user_vec);
    }
  }
}

/// One bag-of-words record step (footnote 4): the record's words act as a
/// single summed center vector that predicts the record's location unit,
/// time unit, and each of its words; the center gradient of each step is
/// distributed to every member word. The record's T-L pair trains as two
/// plain skip-gram steps. `scratch` is the caller's per-shard scratch of
/// kRecordScratchRows * dim floats.
void TrainRecordBagOfWords(const RecordUnits& units,
                           const TypedNegativeSampler& noise,
                           const SigmoidTable& sigmoid, int negatives,
                           float lr, bool sum_composite, Rng& rng,
                           EmbeddingMatrix* center, EmbeddingMatrix* context,
                           float* scratch) {
  const std::size_t dim = static_cast<std::size_t>(center->dim());
  const auto& words = units.word_units;
  auto neg = [&noise](EdgeType e, VertexType t) {
    return [&noise, e, t](Rng& r) { return noise.Sample(e, t, r); };
  };
  float* const grad = scratch;

  // T-L pair (both orientations).
  if (units.time_unit != units.location_unit) {
    NegativeSamplingUpdate(center->row(units.time_unit), units.location_unit,
                           negatives, lr, context, sigmoid, rng,
                           neg(EdgeType::kTL, VertexType::kLocation), grad);
    NegativeSamplingUpdate(center->row(units.location_unit), units.time_unit,
                           negatives, lr, context, sigmoid, rng,
                           neg(EdgeType::kTL, VertexType::kTime), grad);
  }
  if (words.empty()) return;

  // Composite bag-of-words center vector: the mean of the record's word
  // vectors (footnote 4 takes the sum; the mean differs only by a scale
  // factor and keeps the sigmoid inputs in the same range as single-unit
  // steps, which matters at small d).
  float* const comp = scratch + dim;
  Zero(comp, dim);
  for (VertexId w : words) Add(center->row(w), comp, dim);
  if (!sum_composite) {
    Scale(1.0f / static_cast<float>(words.size()), comp, dim);
  }

  // Bag -> location and bag -> time. Each step trains its own copy of the
  // composite, so both see the same one; their summed center gradients go
  // to every member word.
  float* const step_center = scratch + 2 * dim;
  float* const grad2 = scratch + 3 * dim;
  Copy(comp, step_center, dim);
  NegativeSamplingUpdate(step_center, units.location_unit, negatives, lr,
                         context, sigmoid, rng,
                         neg(EdgeType::kLW, VertexType::kLocation), grad);
  Copy(comp, step_center, dim);
  NegativeSamplingUpdate(step_center, units.time_unit, negatives, lr, context,
                         sigmoid, rng, neg(EdgeType::kWT, VertexType::kTime),
                         grad2);
  Add(grad2, grad, dim);
  for (VertexId w : words) Add(grad, center->row(w), dim);

  // Bag-minus-self -> each word (the WW relation under the bag model).
  if (words.size() >= 2) {
    const float n_words = static_cast<float>(words.size());
    float* const comp_minus = step_center;
    for (VertexId w : words) {
      // Composite of the other words: sum - x_w, or its mean
      // (n * comp - x_w) / (n - 1) under the mean composite.
      Copy(comp, comp_minus, dim);
      if (!sum_composite) Scale(n_words, comp_minus, dim);
      Axpy(-1.0f, center->row(w), comp_minus, dim);
      if (!sum_composite) Scale(1.0f / (n_words - 1.0f), comp_minus, dim);
      NegativeSamplingUpdate(comp_minus, w, negatives, lr, context, sigmoid,
                             rng, neg(EdgeType::kWW, VertexType::kWord), grad);
      for (VertexId other : words) {
        if (other != w) Add(grad, center->row(other), dim);
      }
    }
  }

  // Location/time predict individual words as contexts, keeping both
  // directions of the LW/WT types trained under the bag model as well.
  const VertexId some_word = words[rng.Uniform(words.size())];
  NegativeSamplingUpdate(center->row(units.location_unit), some_word,
                         negatives, lr, context, sigmoid, rng,
                         neg(EdgeType::kLW, VertexType::kWord), grad);
  NegativeSamplingUpdate(center->row(units.time_unit), some_word, negatives,
                         lr, context, sigmoid, rng,
                         neg(EdgeType::kWT, VertexType::kWord), grad);
}

}  // namespace

Result<ActorModel> TrainActor(const BuiltGraphs& graphs,
                              const ActorOptions& options) {
  ACTOR_RETURN_NOT_OK(ValidateOptions(options));
  const Heterograph& g = graphs.activity;
  if (!g.finalized() || !graphs.user_graph.finalized()) {
    return Status::FailedPrecondition("graphs must be finalized");
  }
  if (g.num_vertices() == 0) {
    return Status::InvalidArgument("activity graph has no vertices");
  }

  ActorModel model;
  model.center = EmbeddingMatrix(g.num_vertices(), options.dim);
  model.context = EmbeddingMatrix(g.num_vertices(), options.dim);
  Rng rng(options.seed);
  model.center.InitUniform(rng);
  model.context.InitZero();

  // One persistent worker pool for the whole run — LINE pre-training, the
  // edge-sampling trainer, and the record loop all share it, so thread
  // spawn/join happens once per run rather than once per TrainEdgeType
  // call (hundreds across epochs x edge types). A caller-owned pool
  // (options.pool) extends that to once per *process* across runs.
  // num_threads <= 1 ignores any provided pool: the whole run stays on the
  // sequential, bit-deterministic path.
  std::unique_ptr<ThreadPool> pool_storage;
  ThreadPool* pool = options.num_threads > 1 ? options.pool : nullptr;
  if (pool == nullptr && options.num_threads > 1) {
    pool_storage = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(options.num_threads));
    pool = pool_storage.get();
  }

  // --- Lines 3-4: user-graph pre-training and hierarchical init ---------
  Stopwatch pretrain_timer;
  const bool has_user_graph =
      graphs.user_graph.edges(EdgeType::kUU).size() > 0;
  if (options.use_inter && options.init_from_users && has_user_graph) {
    LineOptions user_opts;
    user_opts.dim = options.dim;
    user_opts.negatives = std::max(options.negatives, 5);
    user_opts.samples_per_edge = options.user_pretrain_samples_per_edge;
    user_opts.num_threads = options.num_threads;
    user_opts.pool = pool;
    user_opts.seed = options.seed ^ 0xabcdef12ULL;
    user_opts.edge_types = {EdgeType::kUU};
    ACTOR_ASSIGN_OR_RETURN(LineEmbedding user_embedding,
                           TrainLine(graphs.user_graph, user_opts));
    if (options.init_from_users) {
      InitializeFromUserEmbeddings(graphs, user_embedding, rng, &model.center,
                                   &model.context);
    }
    model.stats.pretrain_seconds = pretrain_timer.ElapsedSeconds();
  }

  // --- Lines 5-11: alternating meta-graph training -----------------------
  Stopwatch train_timer;
  ACTOR_ASSIGN_OR_RETURN(TypedNegativeSampler noise,
                         TypedNegativeSampler::Create(g));
  TrainOptions train_opts;
  train_opts.dim = options.dim;
  train_opts.negatives = options.negatives;
  train_opts.num_threads = options.num_threads;
  train_opts.pool = pool;
  train_opts.seed = options.seed + 1;
  EdgeSamplingTrainer trainer(&g, &model.center, &model.context, &noise,
                              train_opts);
  ACTOR_RETURN_NOT_OK(trainer.Prepare());

  // Per-epoch budgets: every directed edge of a type is sampled
  // samples_per_edge times over the full run.
  auto epoch_budget = [&](EdgeType e) -> int64_t {
    const int64_t edges = static_cast<int64_t>(g.edges(e).size());
    return (edges * options.samples_per_edge + options.epochs - 1) /
           options.epochs;
  };

  // Bag-of-words budget: equivalent unit-update cost to the plain
  // LW/WT/WW budget, so ablations compare at matched compute.
  int64_t word_edge_budget_per_epoch = 0;
  for (EdgeType e : {EdgeType::kLW, EdgeType::kWT, EdgeType::kWW}) {
    word_edge_budget_per_epoch += epoch_budget(e);
  }
  double avg_cost = 0.0;
  for (const auto& units : graphs.record_units) {
    avg_cost += 4.0 + 2.0 * static_cast<double>(units.word_units.size());
  }
  avg_cost = std::max(1.0, avg_cost / std::max<std::size_t>(
                                          1, graphs.record_units.size()));
  const int64_t records_per_epoch =
      options.use_bag_of_words
          ? std::max<int64_t>(
                1, static_cast<int64_t>(
                       static_cast<double>(word_edge_budget_per_epoch) /
                       avg_cost))
          : 0;

  const SigmoidTable sigmoid;
  // Per-shard gradient scratch for the record loop, allocated at the
  // dispatch boundary: the record shard body runs on the hot path and
  // must not allocate.
  const std::size_t record_shards = pool == nullptr ? 1 : pool->num_threads();
  // One cache-line-padded slot per shard holds its gradient, composite,
  // step-center and second-gradient buffers (dim floats each).
  const std::size_t dim = static_cast<std::size_t>(options.dim);
  WorkerScratch rec_scratch(
      record_shards, options.use_bag_of_words ? kRecordScratchRows * dim : 0);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    const float frac =
        static_cast<float>(epoch) / static_cast<float>(options.epochs);
    const float lr = std::max(options.initial_lr * (1.0f - frac),
                              options.initial_lr * 1e-3f);

    // Inter-record meta-graph edge types (Algorithm 1, lines 6-8).
    if (options.use_inter) {
      for (EdgeType e : InterEdgeTypes()) {
        const int64_t m = epoch_budget(e);
        ACTOR_RETURN_NOT_OK(trainer.TrainEdgeType(e, m, lr));
        model.stats.edge_steps += m;
      }
    }

    // Intra-record meta-graph (lines 9-11).
    if (!options.use_bag_of_words) {
      for (EdgeType e : IntraEdgeTypes()) {
        const int64_t m = epoch_budget(e);
        ACTOR_RETURN_NOT_OK(trainer.TrainEdgeType(e, m, lr));
        model.stats.edge_steps += m;
      }
    } else {
      // TL edges train as plain pairs inside the record step; LW/WT/WW
      // train through the record-level bag-of-words model. The analyzer
      // derives the HOGWILD scope from the ShardedRange dispatch below;
      // the shard body uses only the caller-owned per-shard scratch.
      auto run_records = [&](int64_t count, uint64_t seed, int t) {
        Rng shard_rng(seed);
        float* const scratch = rec_scratch.slot(static_cast<std::size_t>(t));
        for (int64_t i = 0; i < count; ++i) {
          const auto& units =
              graphs.record_units[shard_rng.Uniform(graphs.record_units.size())];
          TrainRecordBagOfWords(units, noise, sigmoid, options.negatives, lr,
                                options.bow_sum_composite, shard_rng,
                                &model.center, &model.context, scratch);
        }
      };
      const uint64_t record_step = 1000 + static_cast<uint64_t>(epoch);
      if (pool == nullptr) {
        run_records(records_per_epoch, ShardSeed(options.seed, record_step, 0),
                    0);
      } else {
        pool->ShardedRange(
            0, static_cast<std::size_t>(records_per_epoch),
            [&](int t, std::size_t lo, std::size_t hi) {
              run_records(static_cast<int64_t>(hi - lo),
                          ShardSeed(options.seed, record_step, t), t);
            });
      }
      model.stats.record_steps += records_per_epoch;
    }
  }
  model.stats.train_seconds = train_timer.ElapsedSeconds();
  return model;
}

}  // namespace actor
