#include "core/online_actor.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

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
  if (options.num_shards < 0) {
    return Status::InvalidArgument("num_shards must be >= 0");
  }
  OnlineActor model(options);
  // Legacy mode (num_shards == 0) runs the whole model in one physical
  // shard, so every sharded container below degenerates to the flat
  // layout with local ids == global ids.
  model.shards_ = std::max(1, options.num_shards);
  model.sharded_ = options.num_shards > 0;
  PartitionSpec spec;
  spec.num_shards = model.shards_;
  spec.strategy = options.shard_strategy;
  model.partitioner_ = VertexPartitioner(spec);
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
  // Same pool contract as EdgeSamplingTrainer: num_threads <= 1 is the
  // sequential, bit-deterministic path and ignores any provided pool
  // entirely (the PR 2 bug class); num_threads > 1 borrows the caller's
  // persistent pool or owns a private one for the actor's lifetime. In
  // sharded mode the pool dispatches whole per-shard epochs instead of
  // HOGWILD sample ranges, so the result is thread-count-invariant there.
  if (options.num_threads > 1) {
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
      snapshots_(std::make_unique<SnapshotStore>()),
      sharded_snapshots_(std::make_unique<ShardedSnapshotStore>()) {}
OnlineActor::~OnlineActor() = default;
OnlineActor::OnlineActor(OnlineActor&&) noexcept = default;
OnlineActor& OnlineActor::operator=(OnlineActor&&) noexcept = default;

VertexId OnlineActor::AddUnit(VertexType type, std::string name) {
  const VertexId id = static_cast<VertexId>(types_.size());
  types_.push_back(type);
  names_.push_back(std::move(name));
  const int owner = partitioner_.Assign(id, type);
  const int32_t local = map_.AddVertex(id, owner);
  // Row init consumes rng_ in global-id order regardless of owner, so the
  // initial vectors are identical across shard counts (the A/B anchor).
  center_.AppendRow(owner, &rng_);
  context_.AppendRow(owner, nullptr);
  // A new unit's row is dirty by definition: no previous snapshot chunk
  // can cover it. Resolve/AddUnit run on the ingest thread, outside any
  // hogwild region, so marking the merged set directly is safe. Both
  // publish paths' bookkeeping is kept current (global set for the flat
  // path, owner's local set for the sharded path).
  dirty_.Resize(static_cast<int32_t>(types_.size()));
  dirty_.Mark(id);
  owned_dirty_[static_cast<std::size_t>(owner)].Resize(local + 1);
  owned_dirty_[static_cast<std::size_t>(owner)].Mark(local);
  return id;
}

VertexId OnlineActor::ResolveSpatial(const GeoPoint& location) {
  int best = -1;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < spatial_.size(); ++i) {
    const double d = Distance(location, spatial_[i]);
    if (d < best_dist) {
      best_dist = d;
      best = static_cast<int>(i);
    }
  }
  if (best >= 0 && best_dist <= options_.new_spatial_hotspot_km) {
    return spatial_units_[best];
  }
  spatial_.push_back(location);
  const VertexId unit = AddUnit(
      VertexType::kLocation,
      StrPrintf("L%zu(%.2f,%.2f)", spatial_.size() - 1, location.x,
                location.y));
  spatial_units_.push_back(unit);
  return unit;
}

VertexId OnlineActor::ResolveTemporal(double timestamp) {
  const double hour = HourOfDay(timestamp);
  int best = -1;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < temporal_.size(); ++i) {
    const double d = CircularHourDistance(hour, temporal_[i]);
    if (d < best_dist) {
      best_dist = d;
      best = static_cast<int>(i);
    }
  }
  if (best >= 0 && best_dist <= options_.new_temporal_hotspot_hours) {
    return temporal_units_[best];
  }
  temporal_.push_back(hour);
  const int hh = static_cast<int>(hour);
  const int mm = static_cast<int>((hour - hh) * 60.0);
  const VertexId unit =
      AddUnit(VertexType::kTime,
              StrPrintf("T%zu(%02d:%02d)", temporal_.size() - 1, hh, mm));
  temporal_units_.push_back(unit);
  return unit;
}

VertexId OnlineActor::ResolveWord(int32_t word_id) {
  auto it = word_units_.find(word_id);
  if (it != word_units_.end()) return it->second;
  const VertexId unit =
      AddUnit(VertexType::kWord, StrPrintf("word%d", word_id));
  word_units_.emplace(word_id, unit);
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
  auto type = EdgeTypeBetween(types_[a], types_[b]);
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
    // are restricted to shard-owned vertices (every vertex at one shard).
    if (map_.owner(v) != s) continue;
    NoiseTable& noise = cache.noise[static_cast<int>(types_[v])];
    noise.candidates.push_back(v);
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
  if (sharded_) return TrainBatchSharded();
  // Legacy unsharded path: the whole model lives in shard 0, trained by
  // splitting each type's sample budget across pool workers (HOGWILD).
  for (int e = 0; e < kNumEdgeTypes; ++e) {
    const OnlineEdgeStore& store = edges_[e].shard(0);
    if (store.empty()) continue;
    ACTOR_RETURN_NOT_OK(RefreshSamplers(e, 0));
    // Both directions of every undirected edge carry the per-edge budget,
    // as in the pre-port flattening.
    const auto samples = static_cast<int64_t>(
        options_.samples_per_edge_per_batch * 2.0 *
        static_cast<double>(store.size()));
    if (samples <= 0) continue;
    const uint64_t step = train_steps_;
    const std::size_t dim = static_cast<std::size_t>(options_.dim);
    if (pool_ == nullptr || pool_->num_threads() == 1) {
      // Sequential path: no concurrent markers, mark the merged set.
      std::vector<float> grad(dim);
      TrainTypeShard(e, samples, ShardSeed(options_.seed, step, 0), &dirty_,
                     grad.data());
    } else {
      shard_dirty_.resize(pool_->num_threads());
      for (auto& s : shard_dirty_) {
        s.Resize(num_units());
        s.Clear();
      }
      // Per-shard gradient scratch, allocated at the dispatch boundary:
      // the shard bodies themselves are allocation-free (hot-path rule).
      std::vector<float> shard_grad(pool_->num_threads() * dim);
      float* const grad_base = shard_grad.data();
      pool_->ShardedRange(
          0, static_cast<std::size_t>(samples),
          [this, e, step, grad_base, dim](int shard, std::size_t lo,
                                          std::size_t hi) {
            TrainTypeShard(e, static_cast<int64_t>(hi - lo),
                           ShardSeed(options_.seed, step, shard),
                           &shard_dirty_[static_cast<std::size_t>(shard)],
                           grad_base + static_cast<std::size_t>(shard) * dim);
          });
      // Batch barrier: ShardedRange returned, the shard-local sets are
      // published to the ingest thread — fold them into the merged set.
      for (const auto& s : shard_dirty_) dirty_.MergeFrom(s);
    }
    train_steps_ += static_cast<uint64_t>(samples);
  }
  // HOGWILD updates cannot be checked per-step without serializing the
  // shards; sweep both matrices for NaN/inf after every batch in debug
  // builds instead (same policy as EdgeSamplingTrainer).
  ACTOR_DCHECK(center_.DebugValidate());
  ACTOR_DCHECK(context_.DebugValidate());
  return Status::OK();
}

// Runs concurrently on pool workers (the analyzer derives the HOGWILD
// scope from the ShardedRange dispatch): shared row access must go through
// the kernel API or RelaxedLoad/RelaxedStore, and the body is
// allocation-free — `grad` scratch is owned by the dispatch site.
void OnlineActor::TrainTypeShard(int e, int64_t num_samples, uint64_t seed,
                                 DirtyRowSet* dirty, float* grad) {
  Rng rng(seed);
  const OnlineEdgeStore& store = edges_[e].shard(0);
  const SamplerCache& cache = samplers_[e][0];
  EmbeddingMatrix& center = center_.shard(0);
  EmbeddingMatrix& context = context_.shard(0);
  // Decayed-weight / alias-mass consistency: the sampler must describe
  // exactly the live edge set, or draws would index dropped slots.
  ACTOR_DCHECK(cache.built && cache.edge_table.size() == store.size())
      << "sampler for edge type " << e << " covers "
      << cache.edge_table.size() << " edges, store holds " << store.size();
  const std::vector<VertexId>& src = store.src();
  const std::vector<VertexId>& dst = store.dst();
  const std::size_t dim = static_cast<std::size_t>(options_.dim);
  const float lr = options_.learning_rate;

  // Block-wise sampling with software prefetch, as in
  // EdgeSamplingTrainer::TrainShard: the random center/context row
  // accesses of block i overlap the alias draws of block i+1. The low bit
  // of each buffered entry is the edge orientation (undirected edges are
  // stored once; each draw picks a direction uniformly, which matches the
  // pre-port both-directions flattening in distribution).
  constexpr int64_t kBlock = 64;
  std::array<std::size_t, kBlock> idx_buf;
  for (int64_t base = 0; base < num_samples; base += kBlock) {
    const int64_t block = std::min<int64_t>(kBlock, num_samples - base);
    for (int64_t i = 0; i < block; ++i) {
      const std::size_t idx = cache.edge_table.Sample(rng);
      const std::size_t flip = rng.Next() & 1;
      idx_buf[static_cast<std::size_t>(i)] = (idx << 1) | flip;
      PrefetchRow(center.row(flip ? dst[idx] : src[idx]), dim);
      PrefetchRow(context.row(flip ? src[idx] : dst[idx]), dim);
    }
    for (int64_t i = 0; i < block; ++i) {
      const std::size_t packed = idx_buf[static_cast<std::size_t>(i)];
      const std::size_t idx = packed >> 1;
      const bool flip = (packed & 1) != 0;
      const VertexId u = flip ? dst[idx] : src[idx];
      const VertexId v = flip ? src[idx] : dst[idx];
      const NoiseTable& noise = cache.noise[static_cast<int>(types_[v])];
      if (!noise.valid) continue;
      Zero(grad, dim);
      // Dirty tracking marks the rows this step mutates — u (center), v
      // and every negative draw (context) — into the shard-local set
      // `dirty` points at, never a shared one (R4 discipline).
      NegativeSamplingUpdate(
          center.row(u), v, options_.negatives, lr, &context, sigmoid_,
          rng,
          [&noise, dirty](Rng& r) {
            const VertexId n = noise.candidates[noise.table.Sample(r)];
            dirty->Mark(n);
            return n;
          },
          grad);
      Add(grad, center.row(u), dim);
      dirty->Mark(u);
      dirty->Mark(v);
    }
  }
}

Status OnlineActor::TrainBatchSharded() {
  // Batch barrier, part 1: every shard gets a fresh read-snapshot of the
  // context rows of remote vertices its edges touch.
  RefreshRemoteTiles();
  const std::size_t dim = static_cast<std::size_t>(options_.dim);
  std::vector<int64_t> samples(static_cast<std::size_t>(shards_), 0);
  std::vector<float> shard_grad(static_cast<std::size_t>(shards_) * dim);
  for (int e = 0; e < kNumEdgeTypes; ++e) {
    if (edges_[e].empty()) continue;
    // Sampler refresh + budget sizing happen on the ingest thread (may
    // allocate); each shard's budget mirrors the unsharded formula over
    // its own replica store, so a cross-shard edge — present in both
    // owners' stores but trained only in its locally-centered orientation
    // by each — receives the same 2x-per-edge budget in total, split by
    // ownership (docs/sharding.md).
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
    // pool — sharded training is deterministic at ANY thread count.
    if (pool_ == nullptr || shards_ == 1) {
      for (int s = 0; s < shards_; ++s) {
        if (samples[static_cast<std::size_t>(s)] <= 0) continue;
        TrainShardEpoch(e, s, samples[static_cast<std::size_t>(s)],
                        ShardSeed(options_.seed, step, static_cast<uint64_t>(s)),
                        &owned_dirty_[static_cast<std::size_t>(s)],
                        grad_base + static_cast<std::size_t>(s) * dim);
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
// own dirty set. Allocation-free like TrainTypeShard.
void OnlineActor::TrainShardEpoch(int e, int s, int64_t num_samples,
                                  uint64_t seed, DirtyRowSet* dirty,
                                  float* grad) {
  Rng rng(seed);
  const OnlineEdgeStore& store = edges_[e].shard(s);
  const SamplerCache& cache = samplers_[e][static_cast<std::size_t>(s)];
  EmbeddingMatrix& center = center_.shard(s);
  EmbeddingMatrix& context = context_.shard(s);
  RemoteTileCache& tiles = tiles_[static_cast<std::size_t>(s)];
  ACTOR_DCHECK(cache.built && cache.edge_table.size() == store.size())
      << "sampler for edge type " << e << " shard " << s << " covers "
      << cache.edge_table.size() << " edges, store holds " << store.size();
  const std::vector<VertexId>& src = store.src();
  const std::vector<VertexId>& dst = store.dst();
  const std::size_t dim = static_cast<std::size_t>(options_.dim);
  const float lr = options_.learning_rate;

  // Identical draw structure to TrainTypeShard (block-buffered alias draws,
  // orientation from the RNG low bit), so at one shard — same store, same
  // seed stream, owner checks never firing, local ids equal to global ids —
  // the two trainers consume the RNG identically and write bit-identical
  // updates (the shards=1 A/B identity of shard_online_actor_test).
  constexpr int64_t kBlock = 64;
  std::array<std::size_t, kBlock> idx_buf;
  for (int64_t base = 0; base < num_samples; base += kBlock) {
    const int64_t block = std::min<int64_t>(kBlock, num_samples - base);
    for (int64_t i = 0; i < block; ++i) {
      const std::size_t idx = cache.edge_table.Sample(rng);
      const std::size_t flip = rng.Next() & 1;
      idx_buf[static_cast<std::size_t>(i)] = (idx << 1) | flip;
      const VertexId u = flip ? dst[idx] : src[idx];
      // Prefetch only steps that will actually train (center owned here);
      // prefetching consumes no RNG, so skipping is identity-neutral.
      if (map_.owner(u) == s) {
        const VertexId v = flip ? src[idx] : dst[idx];
        PrefetchRow(center.row(map_.local_row(u)), dim);
        PrefetchRow(map_.owner(v) == s ? context.row(map_.local_row(v))
                                       : tiles.row(v),
                    dim);
      }
    }
    for (int64_t i = 0; i < block; ++i) {
      const std::size_t packed = idx_buf[static_cast<std::size_t>(i)];
      const std::size_t idx = packed >> 1;
      const bool flip = (packed & 1) != 0;
      const VertexId u = flip ? dst[idx] : src[idx];
      const VertexId v = flip ? src[idx] : dst[idx];
      // Ownership gate: this shard trains only orientations whose center
      // endpoint it owns; the co-owner trains the other orientation from
      // its replica. Consumes no RNG, so shards stay stream-aligned.
      if (map_.owner(u) != s) continue;
      const NoiseTable& noise = cache.noise[static_cast<int>(types_[v])];
      if (!noise.valid) continue;
      Zero(grad, dim);
      const int32_t lu = map_.local_row(u);
      // The positive context row: owned rows update in place; a remote
      // vertex's row is the private tile copy, whose delta is discarded at
      // the next barrier (freshness contract in docs/sharding.md).
      float* const pos_ctx = map_.owner(v) == s
                                 ? context.row(map_.local_row(v))
                                 : tiles.row(v);
      // Negatives come from this shard's noise table, which holds owned
      // vertices only — every negative context row is writable locally.
      NegativeSamplingUpdateRows(
          center.row(lu), v, pos_ctx, dim, options_.negatives, lr, sigmoid_,
          rng,
          [&noise, dirty, this](Rng& r) {
            const VertexId n = noise.candidates[noise.table.Sample(r)];
            dirty->Mark(map_.local_row(n));
            return n;
          },
          [&context, this](VertexId x) {
            return context.row(map_.local_row(x));
          },
          grad);
      Add(grad, center.row(lu), dim);
      dirty->Mark(lu);
      if (map_.owner(v) == s) dirty->Mark(map_.local_row(v));
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
  int best = -1;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < spatial_.size(); ++i) {
    const double d = Distance(location, spatial_[i]);
    if (d < best_dist) {
      best_dist = d;
      best = static_cast<int>(i);
    }
  }
  return best < 0 ? kInvalidVertex : spatial_units_[best];
}

VertexId OnlineActor::TemporalUnit(double timestamp) const {
  const double hour = HourOfDay(timestamp);
  int best = -1;
  double best_dist = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < temporal_.size(); ++i) {
    const double d = CircularHourDistance(hour, temporal_[i]);
    if (d < best_dist) {
      best_dist = d;
      best = static_cast<int>(i);
    }
  }
  return best < 0 ? kInvalidVertex : temporal_units_[best];
}

VertexId OnlineActor::WordUnit(int32_t word_id) const {
  auto it = word_units_.find(word_id);
  return it == word_units_.end() ? kInvalidVertex : it->second;
}

ModelSnapshot::OnlineCatalog OnlineActor::BuildCatalog() const {
  ModelSnapshot::OnlineCatalog catalog;
  catalog.types = types_;
  catalog.names = names_;
  catalog.spatial_centers = spatial_;
  catalog.spatial_units = spatial_units_;
  catalog.temporal_hours = temporal_;
  catalog.temporal_units = temporal_units_;
  catalog.word_units = word_units_;
  return catalog;
}

ModelSnapshot::OnlineCatalog OnlineActor::BuildShardCatalog(int s) const {
  ModelSnapshot::OnlineCatalog catalog;
  const std::vector<VertexId>& globals = map_.globals(s);
  catalog.types.reserve(globals.size());
  catalog.names.reserve(globals.size());
  for (const VertexId g : globals) {
    catalog.types.push_back(types_[static_cast<std::size_t>(g)]);
    catalog.names.push_back(names_[static_cast<std::size_t>(g)]);
  }
  return catalog;
}

std::shared_ptr<const ShardMapSnapshot> OnlineActor::BuildMapSnapshot()
    const {
  auto snap = std::make_shared<ShardMapSnapshot>();
  snap->num_shards = shards_;
  snap->owner = map_.owners();
  snap->local = map_.locals();
  snap->globals = map_.all_globals();
  snap->spatial_centers = spatial_;
  snap->spatial_units = spatial_units_;
  snap->temporal_hours = temporal_;
  snap->temporal_units = temporal_units_;
  snap->word_units = word_units_;
  return snap;
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
  std::shared_ptr<const ModelSnapshot> snap;
  if (sharded_) {
    // Sharded mode keeps its dirty bookkeeping per shard in LOCAL row ids
    // (cleared by PublishShardedSnapshot), so the flat publish — the
    // bridge for unsharded consumers and the shards>1 equivalence tests —
    // is always a full gather + copy, and deliberately leaves every dirty
    // set untouched: the two publish paths may be mixed freely without
    // corrupting each other's deltas.
    snap = ModelSnapshot::FromOnline(center_.Gather(map_), BuildCatalog(),
                                     version);
  } else if (options_.delta_publish && prev != nullptr) {
    // Delta publish: copy only chunks containing rows dirtied since
    // `prev`, share the rest. An unchanged unit count means no unit was
    // added (the catalogue only grows through AddUnit), so the whole
    // catalogue state is shared too.
    const EmbeddingMatrix& center = center_.shard(0);
    snap = prev->num_units() == num_units()
               ? ModelSnapshot::FromOnlineDelta(center, version, prev, dirty_)
               : ModelSnapshot::FromOnlineDelta(center, version, prev, dirty_,
                                                BuildCatalog());
    // The new snapshot is exact, so nothing is dirty relative to it — the
    // next delta publish starts from a clean set.
    dirty_.Clear();
  } else {
    snap = ModelSnapshot::FromOnline(center_.shard(0), BuildCatalog(),
                                     version);
    dirty_.Clear();
  }
  snapshots_->Publish(snap);
  return snap;
}

std::shared_ptr<const ModelSnapshot> OnlineActor::CurrentSnapshot() const {
  return snapshots_->Acquire();
}

std::shared_ptr<const ShardedModelSnapshot>
OnlineActor::PublishShardedSnapshot() {
  uint64_t version = static_cast<uint64_t>(batches_);
  for (const auto& store : edges_) version += store.version();

  auto prev = sharded_snapshots_->Acquire();
  if (prev != nullptr && prev->version() == version) {
    return prev;
  }
  // The ownership map only grows through AddUnit, so an unchanged vertex
  // count means the frozen map (and its resolvers) is still exact — share
  // it across publishes, the same trick the flat delta path plays with its
  // catalogue state.
  std::shared_ptr<const ShardMapSnapshot> map_snap =
      (prev != nullptr && prev->map().num_vertices() == num_units())
          ? prev->map_ptr()
          : BuildMapSnapshot();

  std::vector<std::shared_ptr<const ModelSnapshot>> shards;
  shards.reserve(static_cast<std::size_t>(shards_));
  for (int s = 0; s < shards_; ++s) {
    const EmbeddingMatrix& center = center_.shard(s);
    DirtyRowSet& dirty = owned_dirty_[static_cast<std::size_t>(s)];
    const std::shared_ptr<const ModelSnapshot> prev_s =
        prev != nullptr ? prev->shard(s) : nullptr;
    std::shared_ptr<const ModelSnapshot> snap_s;
    // Per-shard delta against the shard's own previous snapshot, driven by
    // its persistent LOCAL-row dirty set. Only the sharded trainer marks
    // those sets row-by-row; the legacy trainer tracks global rows for the
    // flat publish path instead, so legacy mode always full-copies here.
    if (options_.delta_publish && sharded_ && prev_s != nullptr) {
      snap_s = prev_s->num_units() == center.rows()
                   ? ModelSnapshot::FromOnlineDelta(center, version, prev_s,
                                                    dirty)
                   : ModelSnapshot::FromOnlineDelta(center, version, prev_s,
                                                    dirty,
                                                    BuildShardCatalog(s));
    } else {
      snap_s = ModelSnapshot::FromOnline(center, BuildShardCatalog(s),
                                         version);
    }
    // Either way shard s's new snapshot is exact, so its dirty set resets.
    dirty.Clear();
    shards.push_back(std::move(snap_s));
  }
  auto snap = ShardedModelSnapshot::Make(std::move(shards),
                                         std::move(map_snap), version);
  sharded_snapshots_->Publish(snap);
  return snap;
}

std::shared_ptr<const ShardedModelSnapshot> OnlineActor::CurrentShardedSnapshot()
    const {
  return sharded_snapshots_->Acquire();
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
