#include "core/online_actor.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "embedding/sgd.h"
#include "util/string_util.h"

namespace actor {

Result<OnlineActor> OnlineActor::Create(OnlineActorOptions options) {
  if (options.dim <= 0 || options.negatives < 1) {
    return Status::InvalidArgument("dim and negatives must be positive");
  }
  if (options.decay_per_batch <= 0.0 || options.decay_per_batch > 1.0) {
    return Status::InvalidArgument("decay_per_batch must be in (0, 1]");
  }
  if (options.samples_per_edge_per_batch <= 0.0) {
    return Status::InvalidArgument("samples_per_edge_per_batch must be > 0");
  }
  if (options.min_edge_weight <= 0.0) {
    return Status::InvalidArgument("min_edge_weight must be > 0");
  }
  return OnlineActor(options);
}

OnlineActor::OnlineActor(OnlineActorOptions options)
    : options_(options),
      rng_(options.seed),
      center_(0, options.dim),
      context_(0, options.dim),
      snapshots_(std::make_unique<SnapshotStore>()) {
  for (OnlineEdgeStore& store : edges_) {
    store.set_min_weight(options.min_edge_weight);
  }
}

VertexId OnlineActor::AddUnit(VertexType type, std::string name) {
  const VertexId id = num_units();
  catalog_.types.push_back(type);
  catalog_.names.push_back(std::move(name));
  center_.AppendRows(1, &rng_);
  context_.AppendRows(1, nullptr);
  // A new unit's row is dirty by definition: no previous snapshot chunk
  // can cover it.
  dirty_.Resize(id + 1);
  dirty_.Mark(id);
  return id;
}

VertexId OnlineActor::ResolveSpatial(const GeoPoint& location) {
  const OnlineCatalog::Nearest nearest = catalog_.NearestSpatial(location);
  if (nearest.unit != kInvalidVertex &&
      nearest.distance <= options_.new_spatial_hotspot_km) {
    return nearest.unit;
  }
  catalog_.spatial_centers.push_back(location);
  const VertexId unit = AddUnit(
      VertexType::kLocation,
      StrPrintf("L%zu(%.2f,%.2f)", catalog_.spatial_centers.size() - 1,
                location.x, location.y));
  catalog_.spatial_units.push_back(unit);
  return unit;
}

VertexId OnlineActor::ResolveTemporal(double timestamp) {
  const double hour = HourOfDay(timestamp);
  const OnlineCatalog::Nearest nearest = catalog_.NearestTemporal(hour);
  if (nearest.unit != kInvalidVertex &&
      nearest.distance <= options_.new_temporal_hotspot_hours) {
    return nearest.unit;
  }
  catalog_.temporal_hours.push_back(hour);
  const int hh = static_cast<int>(hour);
  const int mm = static_cast<int>((hour - hh) * 60.0);
  const VertexId unit = AddUnit(
      VertexType::kTime,
      StrPrintf("T%zu(%02d:%02d)", catalog_.temporal_hours.size() - 1, hh,
                mm));
  catalog_.temporal_units.push_back(unit);
  return unit;
}

VertexId OnlineActor::ResolveWord(int32_t word_id) {
  const VertexId known = catalog_.WordUnit(word_id);
  if (known != kInvalidVertex) return known;
  const VertexId unit =
      AddUnit(VertexType::kWord, StrPrintf("word%d", word_id));
  catalog_.word_units.emplace(word_id, unit);
  return unit;
}

VertexId OnlineActor::ResolveUser(int64_t user_id) {
  auto it = user_units_.find(user_id);
  if (it != user_units_.end()) return it->second;
  const VertexId unit = AddUnit(
      VertexType::kUser,
      StrPrintf("user%lld", static_cast<long long>(user_id)));
  user_units_.emplace(user_id, unit);
  return unit;
}

void OnlineActor::AccumulateEdge(VertexId a, VertexId b) {
  if (a == b || a == kInvalidVertex || b == kInvalidVertex) return;
  auto type = EdgeTypeBetween(catalog_.types[a], catalog_.types[b]);
  if (!type.ok()) return;
  edges_[static_cast<int>(*type)].Accumulate(a, b);
}

void OnlineActor::DecayEdges() {
  if (options_.decay_per_batch >= 1.0) return;
  for (auto& store : edges_) store.Decay(options_.decay_per_batch);
}

std::size_t OnlineActor::num_live_edges() const {
  std::size_t total = 0;
  for (const auto& store : edges_) total += store.size();
  return total;
}

Status OnlineActor::Ingest(const std::vector<TokenizedRecord>& batch) {
  // Validate the whole batch first, so a rejected one leaves the model as
  // it was. A non-finite timestamp has no hour of day, and a non-finite
  // location is farther than the spawn radius from every hotspot, so each
  // such record would spawn a new unit.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const TokenizedRecord& rec = batch[i];
    if (!std::isfinite(rec.timestamp) || !std::isfinite(rec.location.x) ||
        !std::isfinite(rec.location.y)) {
      return Status::InvalidArgument(
          StrPrintf("record %zu of the batch has a non-finite timestamp or "
                    "location",
                    i));
    }
  }
  // Recency decay happens before the new co-occurrences arrive, so the
  // newest batch always carries full weight. An empty batch is a valid
  // pure-decay tick (sparse-stream mode): a time slice passed with no
  // observations, so weights fade and training continues on the decayed
  // distribution. Uniform decay alone keeps a store's version(), so
  // RefreshSamplers reuses its samplers; but a store whose decay dropped an
  // edge below min_weight bumps version() and is rebuilt, which at the
  // default settings is most stores on most ticks. The accumulate loop
  // below is simply empty.
  DecayEdges();

  for (const TokenizedRecord& rec : batch) {
    const VertexId t = ResolveTemporal(rec.timestamp);
    const VertexId l = ResolveSpatial(rec.location);
    std::vector<VertexId>& words = record_words_;
    words.clear();
    for (int32_t w : rec.word_ids) words.push_back(ResolveWord(w));

    AccumulateEdge(t, l);
    for (VertexId w : words) {
      AccumulateEdge(l, w);
      AccumulateEdge(w, t);
    }
    for (std::size_t i = 0; i < words.size(); ++i) {
      for (std::size_t j = i + 1; j < words.size(); ++j) {
        AccumulateEdge(words[i], words[j]);
      }
    }
    if (options_.use_user_edges) {
      auto link_user = [&](int64_t user_id) {
        const VertexId u = ResolveUser(user_id);
        AccumulateEdge(u, t);
        AccumulateEdge(u, l);
        for (VertexId w : words) AccumulateEdge(u, w);
      };
      link_user(rec.user_id);
      for (int64_t m : rec.mentioned_user_ids) {
        link_user(m);
        AccumulateEdge(ResolveUser(rec.user_id), ResolveUser(m));
      }
    }
  }
  ++batches_;
  return TrainBatch();
}

Status OnlineActor::RefreshSamplers(int e) {
  const OnlineEdgeStore& store = edges_[e];
  SamplerCache& cache = samplers_[e];
  if (cache.built && cache.version == store.version()) {
    // Pure-decay batch for this type: uniform decay preserves the relative
    // distribution, so the cached tables are still exact.
    return Status::OK();
  }
  // The alias table over raw weights samples the *decayed* distribution
  // exactly (uniform scale cancels in the normalization).
  ACTOR_RETURN_NOT_OK(cache.edge_table.Rebuild(store.raw_weights()));
  for (auto& noise : cache.noise) {
    noise.candidates.clear();
    noise.weights.clear();
    noise.valid = false;
  }
  // Live vertices in ascending id, so each noise table's candidate order
  // is a function of the store alone.
  for (VertexId v = 0; v < store.vertex_bound(); ++v) {
    if (store.incident_edges(v) == 0) continue;
    NoiseTable& noise = cache.noise[static_cast<int>(catalog_.types[v])];
    noise.candidates.push_back(v);
    noise.weights.push_back(std::pow(store.raw_degree(v), 0.75));
  }
  for (auto& noise : cache.noise) {
    if (noise.candidates.empty()) continue;
    ACTOR_RETURN_NOT_OK(noise.table.Rebuild(noise.weights));
    noise.valid = true;
  }
  cache.built = true;
  cache.version = store.version();
  return Status::OK();
}

Status OnlineActor::TrainBatch() {
  // Block scratch, allocated here so the epoch body is allocation-free.
  const std::size_t dim = static_cast<std::size_t>(options_.dim);
  const std::size_t negatives = static_cast<std::size_t>(options_.negatives);
  EpochScratch scratch;
  scratch.grads.resize(kSharedNegativeBlock * dim);
  scratch.coefs.resize(kSharedNegativeBlock * (1 + negatives));
  scratch.negatives.resize(negatives);
  for (int e = 0; e < kNumEdgeTypes; ++e) {
    const OnlineEdgeStore& store = edges_[e];
    if (store.empty()) continue;
    // Sampler refresh and budget sizing (may allocate). Both directions of
    // every undirected edge carry the per-edge budget.
    ACTOR_RETURN_NOT_OK(RefreshSamplers(e));
    const auto n = static_cast<int64_t>(options_.samples_per_edge_per_batch *
                                        2.0 * static_cast<double>(store.size()));
    if (n <= 0) continue;
    TrainEpoch(e, n, ShardSeed(options_.seed, train_steps_, 0), &scratch);
    train_steps_ += static_cast<uint64_t>(n);
  }
  ACTOR_DCHECK(center_.DebugValidate());
  ACTOR_DCHECK(context_.DebugValidate());
  return Status::OK();
}

void OnlineActor::TrainEpoch(int e, int64_t num_samples, uint64_t seed,
                             EpochScratch* scratch) {
  Rng rng(seed);
  const OnlineEdgeStore& store = edges_[e];
  const SamplerCache& cache = samplers_[e];
  // Decayed-weight / alias-mass consistency: the sampler must describe
  // exactly the live edge set, or draws would index dropped slots.
  ACTOR_DCHECK(cache.built && cache.edge_table.size() == store.size())
      << "sampler for edge type " << e << " covers "
      << cache.edge_table.size() << " edges, store holds " << store.size();
  const std::vector<VertexId>& src = store.src();
  const std::vector<VertexId>& dst = store.dst();
  const std::vector<VertexType>& types = catalog_.types;
  const std::size_t dim = static_cast<std::size_t>(options_.dim);
  const std::size_t num_negatives = scratch->negatives.size();
  const float lr = options_.learning_rate;

  // Block-wise sampling with software prefetch, as in
  // EdgeSamplingTrainer::TrainShard: the random center/context row
  // accesses of block i overlap the alias draws of block i+1. Each draw
  // picks an undirected edge and an orientation (the RNG low bit).
  struct Step {
    float* center;
    float* context;
    VertexId u;
    VertexId v;
  };
  constexpr int64_t kBlock = 64;
  std::array<Step, kBlock> steps;
  // Step indices of the block, stably grouped by context-vertex type:
  // type t's steps are order[type_begin[t], type_begin[t + 1]).
  std::array<int, kBlock> order;
  std::array<int, kNumVertexTypes + 1> type_begin;
  std::array<float*, kSharedNegativeBlock> centers;
  std::array<float*, kSharedNegativeBlock> positives;
  for (int64_t base = 0; base < num_samples; base += kBlock) {
    const int block = static_cast<int>(std::min(kBlock, num_samples - base));
    type_begin.fill(0);
    for (int i = 0; i < block; ++i) {
      const std::size_t idx = cache.edge_table.Sample(rng);
      const bool flip = (rng.Next() & 1) != 0;
      Step& step = steps[static_cast<std::size_t>(i)];
      step.u = flip ? dst[idx] : src[idx];
      step.v = flip ? src[idx] : dst[idx];
      step.center = center_.row(step.u);
      step.context = context_.row(step.v);
      PrefetchRow(step.center, dim);
      PrefetchRow(step.context, dim);
      ++type_begin[static_cast<std::size_t>(types[step.v]) + 1];
    }
    for (int t = 0; t < kNumVertexTypes; ++t) {
      type_begin[t + 1] += type_begin[t];
    }
    std::array<int, kNumVertexTypes> fill;
    std::copy_n(type_begin.begin(), kNumVertexTypes, fill.begin());
    for (int i = 0; i < block; ++i) {
      const auto t = static_cast<std::size_t>(
          types[steps[static_cast<std::size_t>(i)].v]);
      order[static_cast<std::size_t>(fill[t]++)] = i;
    }
    // Each type's run goes through the block kernel in chunks of at most
    // kSharedNegativeBlock steps that share one typed draw of negatives
    // (Eq. (7)'s P(v) of the context type). Dirty tracking marks the rows
    // the chunk mutates: every step's center and positive, and each
    // shared negative once.
    for (int t = 0; t < kNumVertexTypes; ++t) {
      const NoiseTable& noise = cache.noise[t];
      if (!noise.valid) continue;
      const int end = type_begin[t + 1];
      for (int first = type_begin[t]; first < end;
           first += static_cast<int>(kSharedNegativeBlock)) {
        const auto n_steps = static_cast<std::size_t>(std::min(
            end - first, static_cast<int>(kSharedNegativeBlock)));
        for (std::size_t j = 0; j < n_steps; ++j) {
          const Step& step = steps[static_cast<std::size_t>(
              order[static_cast<std::size_t>(first) + j])];
          centers[j] = step.center;
          positives[j] = step.context;
          dirty_.Mark(step.u);
          dirty_.Mark(step.v);
        }
        for (float*& row : scratch->negatives) {
          const VertexId n = noise.candidates[noise.table.Sample(rng)];
          dirty_.Mark(n);
          row = context_.row(n);
        }
        SharedNegativeBlock(centers.data(), positives.data(), n_steps,
                            scratch->negatives.data(), num_negatives, lr,
                            sigmoid_, scratch->grads.data(),
                            scratch->coefs.data(), dim);
      }
    }
  }
}

VertexId OnlineActor::SpatialUnit(const GeoPoint& location) const {
  return catalog_.NearestSpatial(location).unit;
}

VertexId OnlineActor::TemporalUnit(double timestamp) const {
  return catalog_.NearestTemporal(HourOfDay(timestamp)).unit;
}

VertexId OnlineActor::WordUnit(int32_t word_id) const {
  return catalog_.WordUnit(word_id);
}

std::shared_ptr<const ModelSnapshot> OnlineActor::PublishSnapshot() {
  // Version stamping follows the OnlineEdgeStore scheme: each store's
  // version() bumps on every accumulate/drop, and the batch count covers
  // pure-decay ticks that drop no edge (and so bump no store). The sum
  // is monotone across Ingest() calls, so snapshot versions totally order
  // the published model states.
  uint64_t version = static_cast<uint64_t>(batches_);
  for (const auto& store : edges_) version += store.version();

  auto prev = snapshots_->Acquire();
  if (prev != nullptr && prev->version() == version) {
    // No Ingest() since the last publish — the model is unchanged, so the
    // published snapshot is still exact. Copying nothing makes publish a
    // cheap no-op at any cadence.
    return prev;
  }
  ChunkedMatrix center =
      prev != nullptr
          ? ChunkedMatrix::DeltaCopy(center_, prev->center(), dirty_)
          : ChunkedMatrix::FullCopy(center_);
  // An unchanged unit count means no unit was added (the catalogue only
  // grows through AddUnit), so a delta publish shares the whole
  // catalogue state too.
  std::shared_ptr<const ModelSnapshot> snap =
      prev != nullptr && prev->num_units() == num_units()
          ? prev->WithCenter(std::move(center), version)
          : ModelSnapshot::FromOnline(std::move(center), catalog_, version);
  // The new snapshot is exact, so nothing is dirty relative to it — the
  // next delta publish starts from a clean set.
  dirty_.Clear();
  snapshots_->Publish(snap);
  return snap;
}

std::shared_ptr<const ModelSnapshot> OnlineActor::CurrentSnapshot() const {
  return snapshots_->Acquire();
}

double OnlineActor::ScoreRecordAgainstUnit(const TokenizedRecord& record,
                                           VertexId candidate) const {
  if (candidate < 0 || candidate >= num_units()) return -1e9;
  const std::size_t dim = static_cast<std::size_t>(options_.dim);
  std::vector<float> query(dim, 0.0f);
  int parts = 0;
  const VertexId t = TemporalUnit(record.timestamp);
  if (t != kInvalidVertex && t != candidate) {
    Add(center_.row(t), query.data(), dim);
    ++parts;
  }
  const VertexId l = SpatialUnit(record.location);
  if (l != kInvalidVertex && l != candidate) {
    Add(center_.row(l), query.data(), dim);
    ++parts;
  }
  std::vector<float> text(dim, 0.0f);
  int known = 0;
  for (int32_t w : record.word_ids) {
    const VertexId v = WordUnit(w);
    if (v == kInvalidVertex || v == candidate) continue;
    Add(center_.row(v), text.data(), dim);
    ++known;
  }
  if (known > 0) {
    Scale(1.0f / static_cast<float>(known), text.data(), dim);
    Add(text.data(), query.data(), dim);
    ++parts;
  }
  if (parts == 0) return -1e9;
  return Cosine(query.data(), center_.row(candidate), dim);
}

}  // namespace actor
