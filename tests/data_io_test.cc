#include "data/dataset_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "data/synthetic.h"

namespace actor {
namespace {

class DataIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/corpus_test.tsv";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(DataIoTest, RoundTripPreservesRecords) {
  Corpus corpus;
  RawRecord r;
  r.id = 3;
  r.user_id = 42;
  r.timestamp = 12345.5;
  r.location = {1.25, -2.5};
  r.text = "coffee at the pier";
  r.mentioned_user_ids = {7, 9};
  corpus.Add(r);
  RawRecord r2;
  r2.id = 4;
  r2.user_id = 43;
  r2.timestamp = 0.0;
  r2.text = "no mentions here";
  corpus.Add(r2);

  ASSERT_TRUE(SaveCorpusTsv(corpus, path_).ok());
  auto loaded = LoadCorpusTsv(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  const RawRecord& a = loaded->record(0);
  EXPECT_EQ(a.id, 3);
  EXPECT_EQ(a.user_id, 42);
  EXPECT_DOUBLE_EQ(a.timestamp, 12345.5);
  EXPECT_DOUBLE_EQ(a.location.x, 1.25);
  EXPECT_DOUBLE_EQ(a.location.y, -2.5);
  EXPECT_EQ(a.text, "coffee at the pier");
  EXPECT_EQ(a.mentioned_user_ids, (std::vector<int64_t>{7, 9}));
  EXPECT_TRUE(loaded->record(1).mentioned_user_ids.empty());
}

TEST_F(DataIoTest, TabsInTextSanitized) {
  Corpus corpus;
  RawRecord r;
  r.id = 0;
  r.text = "tab\there\nnewline";
  corpus.Add(r);
  ASSERT_TRUE(SaveCorpusTsv(corpus, path_).ok());
  auto loaded = LoadCorpusTsv(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->record(0).text, "tab here newline");
}

TEST_F(DataIoTest, SyntheticRoundTrip) {
  SyntheticConfig config;
  config.num_records = 200;
  config.num_users = 30;
  config.num_venues = 10;
  config.num_topics = 4;
  config.num_communities = 3;
  auto ds = GenerateSynthetic(config);
  ASSERT_TRUE(ds.ok());
  ASSERT_TRUE(SaveCorpusTsv(ds->corpus, path_).ok());
  auto loaded = LoadCorpusTsv(path_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), ds->corpus.size());
  for (std::size_t i = 0; i < loaded->size(); ++i) {
    const RawRecord& got = loaded->record(i);
    const RawRecord& want = ds->corpus.record(i);
    EXPECT_EQ(got.text, want.text);
    EXPECT_EQ(got.user_id, want.user_id);
    // Exact: the numeric fields must survive the text format bit for bit.
    EXPECT_EQ(got.timestamp, want.timestamp) << "record " << i;
    EXPECT_EQ(got.location.x, want.location.x) << "record " << i;
    EXPECT_EQ(got.location.y, want.location.y) << "record " << i;
  }
}

TEST_F(DataIoTest, MissingFileIsIOError) {
  auto loaded = LoadCorpusTsv("/nonexistent/path/file.tsv");
  EXPECT_TRUE(loaded.status().IsIOError());
}

TEST_F(DataIoTest, MalformedColumnCountIsError) {
  std::ofstream out(path_);
  out << "1\t2\t3\n";
  out.close();
  auto loaded = LoadCorpusTsv(path_);
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

TEST_F(DataIoTest, MalformedNumberIsError) {
  std::ofstream out(path_);
  out << "abc\t2\t3.0\t1.0\t1.0\t\ttext\n";
  out.close();
  auto loaded = LoadCorpusTsv(path_);
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

TEST_F(DataIoTest, NonFiniteNumberIsErrorNamingTheLine) {
  // strtod accepts "nan" and "inf"; the loader must not.
  for (const char* row : {"1\t2\tnan\t1.0\t1.0\t\ttext\n",
                          "1\t2\t3.0\tinf\t1.0\t\ttext\n",
                          "1\t2\t3.0\t1.0\t-INF\t\ttext\n",
                          "1\t2\t3.0\t1.0\tNaN\t\ttext\n"}) {
    std::ofstream out(path_);
    out << "1\t2\t3.0\t1.0\t1.0\t\tfine\n" << row;
    out.close();
    auto loaded = LoadCorpusTsv(path_);
    EXPECT_TRUE(loaded.status().IsInvalidArgument()) << row;
    EXPECT_NE(loaded.status().message().find(":2:"), std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(DataIoTest, MalformedMentionIsError) {
  std::ofstream out(path_);
  out << "1\t2\t3.0\t1.0\t1.0\t7,x\ttext\n";
  out.close();
  auto loaded = LoadCorpusTsv(path_);
  EXPECT_TRUE(loaded.status().IsInvalidArgument());
}

TEST_F(DataIoTest, EmptyLinesSkipped) {
  std::ofstream out(path_);
  out << "1\t2\t3.0\t1.0\t1.0\t\ttext\n\n";
  out.close();
  auto loaded = LoadCorpusTsv(path_);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
}

TEST_F(DataIoTest, UnwritablePathIsIOError) {
  Corpus corpus;
  corpus.Add(RawRecord{});
  EXPECT_TRUE(SaveCorpusTsv(corpus, "/nonexistent/dir/out.tsv").IsIOError());
}

}  // namespace
}  // namespace actor
