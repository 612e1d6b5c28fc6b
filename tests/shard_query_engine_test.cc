#include <gtest/gtest.h>

#include <vector>

#include "core/online_actor.h"
#include "data/synthetic.h"
#include "serve/chunked_matrix.h"
#include "serve/model_snapshot.h"
#include "serve/query_engine.h"

namespace actor {
namespace {

std::vector<std::vector<TokenizedRecord>> MakeBatches(int records,
                                                      int batches,
                                                      uint64_t seed = 5) {
  SyntheticConfig config;
  config.seed = seed;
  config.num_records = records;
  config.num_users = 80;
  config.num_communities = 4;
  config.num_topics = 6;
  config.num_venues = 16;
  config.keywords_per_topic = 20;
  config.background_vocab = 40;
  auto ds = GenerateSynthetic(config);
  EXPECT_TRUE(ds.ok());
  CorpusBuildOptions build;
  build.min_word_count = 1;
  auto corpus = TokenizedCorpus::Build(ds->corpus, build);
  EXPECT_TRUE(corpus.ok());
  std::vector<std::vector<TokenizedRecord>> out(batches);
  for (std::size_t i = 0; i < corpus->size(); ++i) {
    out[i * batches / corpus->size()].push_back(corpus->record(i));
  }
  return out;
}

/// A model trained at `num_shards` shards, delta-published after every
/// batch, plus the reference view of the same state: a full snapshot built
/// from the gathered center matrix and the actor's catalogue.
struct Harness {
  Result<OnlineActor> model;
  std::shared_ptr<const ModelSnapshot> published;
  std::shared_ptr<const ModelSnapshot> gathered;
};

Harness MakeHarness(int num_shards, int records = 900) {
  OnlineActorOptions opts;
  opts.dim = 16;
  opts.samples_per_edge_per_batch = 2.0;
  opts.num_shards = num_shards;
  Harness h{OnlineActor::Create(opts), nullptr, nullptr};
  EXPECT_TRUE(h.model.ok());
  const auto batches = MakeBatches(records, 3);
  for (const auto& batch : batches) {
    EXPECT_TRUE(h.model->Ingest(batch).ok());
    h.published = h.model->PublishSnapshot();
  }
  EXPECT_NE(h.published, nullptr);
  h.gathered = ModelSnapshot::FromOnline(
      ChunkedMatrix::FullCopy(h.model->GatherCenter()), h.model->catalog(),
      h.published->version());
  return h;
}

void ExpectSameNeighbors(const Result<std::vector<Neighbor>>& a,
                         const Result<std::vector<Neighbor>>& b) {
  ASSERT_EQ(a.ok(), b.ok()) << a.status().message() << " vs "
                            << b.status().message();
  if (!a.ok()) {
    EXPECT_EQ(a.status().message(), b.status().message());
    return;
  }
  ASSERT_EQ(a->size(), b->size());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ((*a)[i].vertex, (*b)[i].vertex) << "rank " << i;
    EXPECT_EQ((*a)[i].similarity, (*b)[i].similarity) << "rank " << i;
    EXPECT_EQ((*a)[i].name, (*b)[i].name) << "rank " << i;
    EXPECT_EQ((*a)[i].type, (*b)[i].type) << "rank " << i;
  }
}

// Shards partition training only: the snapshot a 2-shard actor publishes
// (delta-copied chunk by chunk from the owning shards) answers every query
// exactly like a snapshot of the gathered model — same units, same
// similarity bits, same order — across modalities and result types.
TEST(ShardedModelQueryTest, PublishedSnapshotMatchesGatheredModel) {
  Harness h = MakeHarness(2);
  QueryEngine published(h.published);
  QueryEngine gathered(h.gathered);
  ASSERT_EQ(h.published->num_units(), h.gathered->num_units());

  const GeoPoint somewhere{3.0, 4.0};
  for (const VertexType type :
       {VertexType::kWord, VertexType::kLocation, VertexType::kTime,
        VertexType::kUser}) {
    for (const int k : {1, 5, 16}) {
      ExpectSameNeighbors(gathered.QueryByLocation(somewhere, type, k),
                          published.QueryByLocation(somewhere, type, k));
      ExpectSameNeighbors(gathered.QueryByHour(8.5, type, k),
                          published.QueryByHour(8.5, type, k));
    }
  }
  std::vector<float> q(16, 0.25f);
  ExpectSameNeighbors(
      gathered.QueryByVector(q.data(), VertexType::kWord, 9, 3),
      published.QueryByVector(q.data(), VertexType::kWord, 9, 3));
}

TEST(ShardedModelQueryTest, KLargerThanUnitCountAtFourShards) {
  Harness h = MakeHarness(4, 400);
  QueryEngine published(h.published);
  QueryEngine gathered(h.gathered);
  // k beyond the total unit count returns the whole type block, still in
  // (similarity desc, unit id asc) order.
  const int huge_k = h.published->num_units() + 50;
  auto a = gathered.QueryByHour(12.0, VertexType::kWord, huge_k);
  auto b = published.QueryByHour(12.0, VertexType::kWord, huge_k);
  ExpectSameNeighbors(a, b);
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(b->size(), h.published->VerticesOfType(VertexType::kWord).size());
  for (std::size_t i = 1; i < b->size(); ++i) {
    const Neighbor& x = (*b)[i - 1];
    const Neighbor& y = (*b)[i];
    EXPECT_TRUE(x.similarity > y.similarity ||
                (x.similarity == y.similarity && x.vertex < y.vertex))
        << "rank " << i;
  }
  // Sanity: the returned units really span several owner shards.
  const ShardMap& map = h.model->shard_map();
  bool multi_shard = false;
  for (const Neighbor& n : *b) {
    if (map.owner(n.vertex) != map.owner((*b)[0].vertex)) {
      multi_shard = true;
      break;
    }
  }
  EXPECT_TRUE(multi_shard);
}

TEST(ShardedModelQueryTest, BatchMatchesSequentialOnShardedModel) {
  Harness h = MakeHarness(2);
  QueryEngine engine(h.published);

  std::vector<float> q(16, -0.5f);
  std::vector<BatchQuery> queries;
  queries.push_back(
      BatchQuery::Location({3.0, 4.0}, VertexType::kWord, 5));
  queries.push_back(BatchQuery::Hour(8.5, VertexType::kLocation, 3));
  queries.push_back(BatchQuery::Keyword("coffee", VertexType::kWord, 4));
  queries.push_back(BatchQuery::Vector(q.data(), VertexType::kUser, 6));
  queries.push_back(BatchQuery::Hour(23.9, VertexType::kTime, 0));  // bad k
  queries.push_back(BatchQuery::Vector(q.data(), VertexType::kWord, 2, 1));

  const auto batch = engine.QueryBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  ExpectSameNeighbors(
      engine.QueryByLocation({3.0, 4.0}, VertexType::kWord, 5), batch[0]);
  ExpectSameNeighbors(engine.QueryByHour(8.5, VertexType::kLocation, 3),
                      batch[1]);
  // Keyword on a streaming snapshot: NotFound, same text both paths.
  EXPECT_TRUE(batch[2].status().IsNotFound());
  ExpectSameNeighbors(
      engine.QueryByKeyword("coffee", VertexType::kWord, 4), batch[2]);
  ExpectSameNeighbors(
      engine.QueryByVector(q.data(), VertexType::kUser, 6), batch[3]);
  EXPECT_TRUE(batch[4].status().IsInvalidArgument());
  ExpectSameNeighbors(
      engine.QueryByVector(q.data(), VertexType::kWord, 2, 1), batch[5]);
}

}  // namespace
}  // namespace actor
