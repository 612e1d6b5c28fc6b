#include "core/online_actor.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "embedding/sgd.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

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
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  OnlineActor model(options);
  model.shards_ = options.num_shards;
  model.partitioner_ = VertexPartitioner(model.shards_);
  model.map_ = ShardMap(model.shards_);
  model.center_ = ShardedEmbeddingMatrix(model.shards_, options.dim);
  model.context_ = ShardedEmbeddingMatrix(model.shards_, options.dim);
  for (auto& store : model.edges_) {
    store.Reset(model.shards_, options.min_edge_weight);
  }
  for (auto& caches : model.samplers_) {
    caches.resize(static_cast<std::size_t>(model.shards_));
  }
  model.owned_dirty_.resize(static_cast<std::size_t>(model.shards_));
  model.tiles_.resize(static_cast<std::size_t>(model.shards_));
  for (auto& tiles : model.tiles_) tiles.SetDim(options.dim);
  // Same pool contract as EdgeSamplingTrainer: num_threads <= 1 ignores
  // any provided pool entirely; num_threads > 1 borrows the caller's
  // persistent pool or owns a private one. The pool
  // dispatches whole per-shard epochs, so it is only worth having with
  // more than one shard, and the result never depends on it.
  if (options.num_threads > 1 && model.shards_ > 1) {
    if (options.pool != nullptr) {
      model.pool_ = options.pool;
    } else {
      model.owned_pool_ = std::make_unique<ThreadPool>(
          static_cast<std::size_t>(options.num_threads));
      model.pool_ = model.owned_pool_.get();
    }
  }
  return model;
}

// Out-of-line: owned_pool_ holds a forward-declared ThreadPool.
OnlineActor::OnlineActor(OnlineActorOptions options)
    : options_(options),
      rng_(options.seed),
      snapshots_(std::make_unique<SnapshotStore>()) {}
OnlineActor::~OnlineActor() = default;
OnlineActor::OnlineActor(OnlineActor&&) noexcept = default;
OnlineActor& OnlineActor::operator=(OnlineActor&&) noexcept = default;

VertexId OnlineActor::AddUnit(VertexType type, std::string name) {
  const VertexId id = num_units();
  catalog_.types.push_back(type);
  catalog_.names.push_back(std::move(name));
  const int owner = partitioner_.Assign(id);
  const int32_t local = map_.AddVertex(id, owner);
  // Row init consumes rng_ in global-id order regardless of owner, so the
  // initial vectors are identical across shard counts.
  center_.AppendRow(owner, &rng_);
  context_.AppendRow(owner, nullptr);
  // A new unit's row is dirty by definition: no previous snapshot chunk
  // can cover it. AddUnit runs on the ingest thread, outside any epoch, so
  // marking the owner's set directly is safe.
  DirtyRowSet& dirty = owned_dirty_[static_cast<std::size_t>(owner)];
  dirty.Resize(local + 1);
  dirty.Mark(local);
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
  // Local-write replication: the edge lands in every distinct owner's
  // replica store (one store when both endpoints share a shard).
  edges_[static_cast<int>(*type)].Accumulate(a, b, map_);
}

void OnlineActor::DecayEdges() {
  if (options_.decay_per_batch >= 1.0) return;
  for (auto& store : edges_) store.Decay(options_.decay_per_batch);
}

std::size_t OnlineActor::num_live_edges() const {
  std::size_t total = 0;
  for (const auto& store : edges_) total += store.SizeUnique(map_);
  return total;
}

Status OnlineActor::Ingest(const std::vector<TokenizedRecord>& batch) {
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
    std::vector<VertexId> words;
    words.reserve(rec.word_ids.size());
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

Status OnlineActor::RefreshSamplers(int e, int s) {
  OnlineEdgeStore& store = edges_[e].shard(s);
  SamplerCache& cache = samplers_[e][static_cast<std::size_t>(s)];
  if (!options_.incremental_sampler) {
    // A/B lever: reconstruct from scratch every batch, releasing storage,
    // as the pre-port implementation did.
    cache = SamplerCache();
  }
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
  for (const auto& [v, d] : store.raw_degrees()) {
    // Negative draws must resolve to writable rows, so noise candidates
    // are restricted to shard-owned vertices (every vertex at one shard)
    // and stored as their local rows.
    const ShardMap::Slot& slot = map_.slot(v);
    if (slot.owner != s) continue;
    NoiseTable& noise = cache.noise[static_cast<int>(catalog_.types[v])];
    noise.candidates.push_back(slot.local);
    noise.weights.push_back(std::pow(d, 0.75));
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
  // Batch barrier, part 1: every shard gets a fresh read-snapshot of the
  // context rows of remote vertices its edges touch.
  RefreshRemoteTiles();
  const std::size_t dim = static_cast<std::size_t>(options_.dim);
  std::vector<int64_t> samples(static_cast<std::size_t>(shards_), 0);
  // Per-shard gradient scratch, allocated at the dispatch boundary: the
  // epoch bodies themselves are allocation-free (hot-path rule).
  std::vector<float> shard_grad(static_cast<std::size_t>(shards_) * dim);
  for (int e = 0; e < kNumEdgeTypes; ++e) {
    if (edges_[e].empty()) continue;
    // Sampler refresh + budget sizing happen on the ingest thread (may
    // allocate). Both directions of every undirected edge carry the
    // per-edge budget; each shard's budget is that formula over its own
    // replica store, so a cross-shard edge — present in both owners'
    // stores but trained only in its locally-centered orientation by each —
    // receives the same 2x-per-edge budget in total, split by ownership
    // (docs/sharding.md).
    int64_t total = 0;
    for (int s = 0; s < shards_; ++s) {
      const OnlineEdgeStore& store = edges_[e].shard(s);
      if (store.empty()) {
        samples[static_cast<std::size_t>(s)] = 0;
        continue;
      }
      ACTOR_RETURN_NOT_OK(RefreshSamplers(e, s));
      const auto n = static_cast<int64_t>(
          options_.samples_per_edge_per_batch * 2.0 *
          static_cast<double>(store.size()));
      samples[static_cast<std::size_t>(s)] = n;
      total += n;
    }
    if (total <= 0) continue;
    const uint64_t step = train_steps_;
    float* const grad_base = shard_grad.data();
    const int64_t* const samples_base = samples.data();
    // One epoch per shard: each epoch writes only shard-owned rows and its
    // own dirty set, so the epochs are mutually write-isolated and the
    // result is bit-identical whether they run sequentially or on the
    // pool — training is deterministic at ANY thread count.
    if (pool_ == nullptr) {
      for (std::size_t s = 0; s < samples.size(); ++s) {
        if (samples[s] <= 0) continue;
        TrainShardEpoch(e, static_cast<int>(s), samples[s],
                        ShardSeed(options_.seed, step, s), &owned_dirty_[s],
                        grad_base + s * dim);
      }
    } else {
      pool_->ParallelFor(
          0, static_cast<std::size_t>(shards_),
          [this, e, step, grad_base, samples_base, dim](std::size_t s) {
            if (samples_base[s] <= 0) return;
            TrainShardEpoch(e, static_cast<int>(s), samples_base[s],
                            ShardSeed(options_.seed, step, s),
                            &owned_dirty_[s], grad_base + s * dim);
          });
    }
    train_steps_ += static_cast<uint64_t>(total);
  }
  ACTOR_DCHECK(center_.DebugValidate());
  ACTOR_DCHECK(context_.DebugValidate());
  return Status::OK();
}

// May run concurrently with the other shards' epochs (ParallelFor
// dispatch), but every write lands in shard-s-owned state: center/context
// rows of owned vertices, the private remote-tile copies, and this shard's
// own dirty set. Shared row access still goes through the kernel API, and
// the body is allocation-free — `grad` scratch is owned by the dispatch
// site.
void OnlineActor::TrainShardEpoch(int e, int s, int64_t num_samples,
                                  uint64_t seed, DirtyRowSet* dirty,
                                  float* grad) {
  Rng rng(seed);
  const OnlineEdgeStore& store = edges_[e].shard(s);
  const SamplerCache& cache = samplers_[e][static_cast<std::size_t>(s)];
  EmbeddingMatrix& center = center_.shard(s);
  EmbeddingMatrix& context = context_.shard(s);
  RemoteTileCache& tiles = tiles_[static_cast<std::size_t>(s)];
  // Decayed-weight / alias-mass consistency: the sampler must describe
  // exactly the live edge set, or draws would index dropped slots.
  ACTOR_DCHECK(cache.built && cache.edge_table.size() == store.size())
      << "sampler for edge type " << e << " shard " << s << " covers "
      << cache.edge_table.size() << " edges, store holds " << store.size();
  const std::vector<VertexId>& src = store.src();
  const std::vector<VertexId>& dst = store.dst();
  const std::vector<VertexType>& types = catalog_.types;
  const std::size_t dim = static_cast<std::size_t>(options_.dim);
  const float lr = options_.learning_rate;

  // At one shard the ownership map is the identity: every vertex is owned
  // and its local row is its id, so routing skips the map.
  const bool flat = shards_ == 1;

  // Block-wise sampling with software prefetch, as in
  // EdgeSamplingTrainer::TrainShard: the random center/context row
  // accesses of block i overlap the alias draws of block i+1. Each draw
  // picks an undirected edge and an orientation (the RNG low bit); the
  // prefetch pass also resolves its routing once — `lu` is the center's
  // local row, or -1 when another shard owns the center (the co-owner
  // trains that orientation from its replica); `lv` is the positive
  // context's local row, or -1 for a remote vertex, whose row is the
  // private tile copy (freshness contract in docs/sharding.md). Routing
  // consumes no RNG, so shards stay stream-aligned.
  struct Step {
    float* center;
    float* context;
    VertexId v;
    int32_t lu;
    int32_t lv;
  };
  constexpr int64_t kBlock = 64;
  std::array<Step, kBlock> steps;
  for (int64_t base = 0; base < num_samples; base += kBlock) {
    const int64_t block = std::min<int64_t>(kBlock, num_samples - base);
    for (int64_t i = 0; i < block; ++i) {
      const std::size_t idx = cache.edge_table.Sample(rng);
      const bool flip = (rng.Next() & 1) != 0;
      const VertexId u = flip ? dst[idx] : src[idx];
      const VertexId v = flip ? src[idx] : dst[idx];
      Step& step = steps[static_cast<std::size_t>(i)];
      step.v = v;
      step.lu = u;
      step.lv = v;
      if (!flat) {
        const ShardMap::Slot& su = map_.slot(u);
        if (su.owner != s) {
          step.lu = -1;
          continue;
        }
        const ShardMap::Slot& sv = map_.slot(v);
        step.lu = su.local;
        step.lv = sv.owner == s ? sv.local : -1;
      }
      step.center = center.row(step.lu);
      step.context = step.lv >= 0 ? context.row(step.lv) : tiles.row(v);
      PrefetchRow(step.center, dim);
      PrefetchRow(step.context, dim);
    }
    for (int64_t i = 0; i < block; ++i) {
      const Step& step = steps[static_cast<std::size_t>(i)];
      if (step.lu < 0) continue;
      const NoiseTable& noise = cache.noise[static_cast<int>(types[step.v])];
      if (!noise.valid) continue;
      Zero(grad, dim);
      // Negatives are owned local rows; a remote positive (lv = -1) can
      // never equal one, so the positive-collision skip stays exact.
      // Dirty tracking marks the rows this step mutates — center, owned
      // positive context and every negative — into this shard's own set.
      NegativeSamplingUpdateRows(
          step.center, step.lv, step.context, dim, options_.negatives, lr,
          sigmoid_, rng,
          [&noise, dirty](Rng& r) {
            const int32_t n = noise.candidates[noise.table.Sample(r)];
            dirty->Mark(n);
            return n;
          },
          [&context](int32_t x) { return context.row(x); }, grad);
      Add(grad, step.center, dim);
      dirty->Mark(step.lu);
      if (step.lv >= 0) dirty->Mark(step.lv);
    }
  }
}

void OnlineActor::RefreshRemoteTiles() {
  if (shards_ == 1) return;  // no remote vertices exist
  for (int s = 0; s < shards_; ++s) {
    RemoteTileCache& tiles = tiles_[static_cast<std::size_t>(s)];
    for (int e = 0; e < kNumEdgeTypes; ++e) {
      const OnlineEdgeStore& store = edges_[e].shard(s);
      const std::vector<VertexId>& src = store.src();
      const std::vector<VertexId>& dst = store.dst();
      for (std::size_t i = 0; i < src.size(); ++i) {
        for (const VertexId v : {src[i], dst[i]}) {
          const int owner = map_.owner(v);
          if (owner == s) continue;
          tiles.Put(v, context_.shard(owner).row(map_.local_row(v)));
        }
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
  // the published model states. (ShardedEdgeStore::version() sums its
  // replicas, which at one shard reduces to the flat scheme exactly.)
  uint64_t version = static_cast<uint64_t>(batches_);
  for (const auto& store : edges_) version += store.version();

  auto prev = snapshots_->Acquire();
  if (prev != nullptr && prev->version() == version) {
    // No Ingest() since the last publish — the model is unchanged, so the
    // published snapshot is still exact. Copying nothing makes publish a
    // cheap no-op at any cadence.
    return prev;
  }
  const bool delta = options_.delta_publish && prev != nullptr;
  // The dirty rows in global ids. At one shard local rows are global ids,
  // so shard 0's set is the global set; with more shards the per-shard
  // sets are folded into one.
  DirtyRowSet folded;
  const DirtyRowSet* dirty = &owned_dirty_[0];
  if (delta && shards_ > 1) {
    folded.Resize(num_units());
    for (int s = 0; s < shards_; ++s) {
      owned_dirty_[static_cast<std::size_t>(s)].ForEachMarked(
          [&](int32_t local) { folded.Mark(map_.global_id(s, local)); });
    }
    dirty = &folded;
  }
  // One copy routine at every shard count: each copied chunk gathers its
  // rows from their owning shards (one memcpy per chunk at one shard).
  ChunkedMatrix center = ChunkedMatrix::Copy(
      num_units(), options_.dim, center_.shard(0).stride(),
      [this](int32_t v) { return CenterRow(v); },
      delta ? &prev->center() : nullptr, delta ? dirty : nullptr);
  // An unchanged unit count means no unit was added (the catalogue only
  // grows through AddUnit), so a delta publish shares the whole
  // catalogue state too.
  std::shared_ptr<const ModelSnapshot> snap =
      delta && prev->num_units() == num_units()
          ? prev->WithCenter(std::move(center), version)
          : ModelSnapshot::FromOnline(std::move(center), catalog_, version);
  // The new snapshot is exact, so nothing is dirty relative to it — the
  // next delta publish starts from clean sets.
  for (DirtyRowSet& d : owned_dirty_) d.Clear();
  snapshots_->Publish(snap);
  return snap;
}

std::shared_ptr<const ModelSnapshot> OnlineActor::CurrentSnapshot() const {
  return snapshots_->Acquire();
}

double OnlineActor::ScoreRecordAgainstUnit(const TokenizedRecord& record,
                                           VertexId candidate) const {
  if (candidate == kInvalidVertex) return -1e9;
  const std::size_t dim = static_cast<std::size_t>(options_.dim);
  std::vector<float> query(dim, 0.0f);
  int parts = 0;
  const VertexId t = TemporalUnit(record.timestamp);
  if (t != kInvalidVertex && t != candidate) {
    Add(CenterRow(t), query.data(), dim);
    ++parts;
  }
  const VertexId l = SpatialUnit(record.location);
  if (l != kInvalidVertex && l != candidate) {
    Add(CenterRow(l), query.data(), dim);
    ++parts;
  }
  std::vector<float> text(dim, 0.0f);
  int known = 0;
  for (int32_t w : record.word_ids) {
    const VertexId v = WordUnit(w);
    if (v == kInvalidVertex || v == candidate) continue;
    Add(CenterRow(v), text.data(), dim);
    ++known;
  }
  if (known > 0) {
    Scale(1.0f / static_cast<float>(known), text.data(), dim);
    Add(text.data(), query.data(), dim);
    ++parts;
  }
  if (parts == 0) return -1e9;
  return Cosine(query.data(), CenterRow(candidate), dim);
}

}  // namespace actor
