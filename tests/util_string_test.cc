#include "util/string_util.h"

#include <gtest/gtest.h>

namespace actor {
namespace {

TEST(SplitTest, Basic) {
  const auto parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  const auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(SplitTest, EmptyString) {
  const auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(SplitTest, TrailingDelimiter) {
  const auto parts = Split("a,", ',');
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "");
}

TEST(SplitWhitespaceTest, DropsEmptyTokens) {
  const auto parts = SplitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "foo");
  EXPECT_EQ(parts[2], "baz");
}

TEST(SplitWhitespaceTest, AllWhitespace) {
  EXPECT_TRUE(SplitWhitespace(" \t\n ").empty());
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(JoinTest, SingleElement) { EXPECT_EQ(Join({"x"}, ","), "x"); }

TEST(JoinTest, Empty) { EXPECT_EQ(Join({}, ","), ""); }

TEST(JoinSplitTest, RoundTrip) {
  const std::vector<std::string> original = {"one", "two", "three"};
  EXPECT_EQ(Split(Join(original, "|"), '|'), original);
}

TEST(TrimTest, BothEnds) { EXPECT_EQ(Trim("  hi \t"), "hi"); }

TEST(TrimTest, NoWhitespace) { EXPECT_EQ(Trim("hi"), "hi"); }

TEST(TrimTest, AllWhitespace) { EXPECT_EQ(Trim("   "), ""); }

TEST(TrimTest, Empty) { EXPECT_EQ(Trim(""), ""); }

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(StartsWith("foo", ""));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(StrPrintfTest, FormatsNumbers) {
  EXPECT_EQ(StrPrintf("%d-%s-%.2f", 3, "x", 1.5), "3-x-1.50");
}

TEST(StrPrintfTest, EmptyFormat) { EXPECT_EQ(StrPrintf("%s", ""), ""); }

TEST(StrPrintfTest, LongOutput) {
  const std::string s = StrPrintf("%0512d", 7);
  EXPECT_EQ(s.size(), 512u);
  EXPECT_EQ(s.back(), '7');
}

}  // namespace
}  // namespace actor
