// Property test: TokenizedCorpus::Build against a test-local copy of the
// two-pass algorithm it replaced (Tokenize every record into strings,
// AddOccurrence, Prune, then Lookup each string), on seed-driven hostile
// texts, with phrase detection off and on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <numeric>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "data/corpus.h"
#include "data/phrase_detector.h"
#include "data/tokenizer.h"
#include "util/rng.h"

namespace actor {
namespace {

// ---------------------------------------------------------------------------
// Reference: the string-at-a-time pipeline, rule for rule.
// ---------------------------------------------------------------------------

bool RefIsTokenChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '#' ||
         c == '@' || c == '\'';
}

bool RefAllDigits(const std::string& s) {
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

std::vector<std::string> RefTokenize(
    const std::string& text, const TokenizerOptions& options,
    const std::unordered_set<std::string>& stopwords) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && !RefIsTokenChar(text[i])) ++i;
    const std::size_t start = i;
    while (i < text.size() && RefIsTokenChar(text[i])) ++i;
    if (i == start) continue;
    const std::string tok = text.substr(start, i - start);
    if (tok[0] == '@' && !options.keep_mentions) continue;
    std::string cleaned;
    for (std::size_t k = 0; k < tok.size(); ++k) {
      const char c = tok[k];
      if (c == '#' && k == 0) continue;
      if (c == '\'') continue;
      cleaned.push_back(c);
    }
    if (options.lowercase) {
      for (char& c : cleaned) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
    }
    if (static_cast<int>(cleaned.size()) < options.min_token_length) continue;
    if (RefAllDigits(cleaned)) continue;
    if (options.remove_stopwords && stopwords.count(cleaned)) continue;
    tokens.push_back(std::move(cleaned));
  }
  return tokens;
}

/// First-seen word -> id with counts, and the count-descending prune.
struct RefVocab {
  std::vector<std::string> words;
  std::vector<int64_t> counts;
  std::unordered_map<std::string, int32_t> index;

  int32_t AddOccurrence(const std::string& word) {
    auto it = index.find(word);
    if (it != index.end()) {
      ++counts[it->second];
      return it->second;
    }
    const int32_t id = static_cast<int32_t>(words.size());
    words.push_back(word);
    counts.push_back(1);
    index.emplace(word, id);
    return id;
  }
  int32_t Lookup(const std::string& word) const {
    auto it = index.find(word);
    return it == index.end() ? -1 : it->second;
  }
  RefVocab Prune(int64_t min_count, int32_t max_size) const {
    std::vector<int32_t> ids(words.size());
    std::iota(ids.begin(), ids.end(), 0);
    std::stable_sort(ids.begin(), ids.end(), [this](int32_t a, int32_t b) {
      return counts[a] > counts[b];
    });
    RefVocab pruned;
    for (int32_t id : ids) {
      if (counts[id] < min_count) break;
      if (static_cast<int32_t>(pruned.words.size()) >= max_size) break;
      const int32_t new_id = pruned.AddOccurrence(words[id]);
      pruned.counts[new_id] = counts[id];
    }
    return pruned;
  }
};

struct RefResult {
  bool ok = false;
  std::size_t phrases = 0;
  RefVocab vocab;
  std::vector<int64_t> record_ids;
  std::vector<std::vector<int32_t>> word_ids;
};

RefResult RefBuild(const Corpus& corpus, const CorpusBuildOptions& options) {
  const Tokenizer tokenizer(options.tokenizer);
  const std::unordered_set<std::string> stopwords(
      tokenizer.stopwords().begin(), tokenizer.stopwords().end());
  RefResult out;
  std::vector<std::vector<std::string>> tokenized;
  for (const RawRecord& r : corpus.records()) {
    tokenized.push_back(RefTokenize(r.text, options.tokenizer, stopwords));
  }
  if (options.detect_phrases) {
    auto phrases = PhraseDetector::Learn(tokenized, options.phrase);
    if (!phrases.ok()) return {};
    out.phrases = phrases->num_phrases();
    for (auto& doc : tokenized) doc = phrases->Apply(std::move(doc));
  }
  RefVocab full;
  for (const auto& doc : tokenized) {
    for (const auto& tok : doc) full.AddOccurrence(tok);
  }
  out.vocab = full.Prune(options.min_word_count, options.max_vocab_size);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    std::vector<int32_t> ids;
    for (const auto& tok : tokenized[i]) {
      const int32_t id = out.vocab.Lookup(tok);
      if (id >= 0) ids.push_back(id);
    }
    if (options.drop_empty_records && ids.empty()) continue;
    out.record_ids.push_back(corpus.record(i).id);
    out.word_ids.push_back(std::move(ids));
  }
  out.ok = !out.record_ids.empty();
  return out;
}

// ---------------------------------------------------------------------------
// Hostile text generator.
// ---------------------------------------------------------------------------

/// Whole fragments: real words at several cases, stop words that only
/// show after stripping or lowercasing, strip characters at the start,
/// middle and end of a token, digit/underscore runs, high bytes and NUL.
const std::vector<std::string>& Fragments() {
  static const std::vector<std::string> kFragments = {
      "coffee", "Coffee", "COFFEE", "museum", "Museum", "pub", "Pub",
      "sport", "hermosa", "beach", "Beach", "la90038", "x1", "Lakers",
      "the", "The", "THE", "#The", "#the", "##the", "the#", "t#he",
      "don't", "Don't", "dont", "'the'", "th'e", "'", "''", "it's", "I'm",
      "@the", "@bob", "@Bob", "@", "#@x", "@#x", "a@b", "bob@", "#",
      "#Lakers", "#lakers", "Lakers#", "la#kers", "#1", "#_", "a#b",
      "123", "90038", "_", "__", "1_2", "_9", "a_1", "9a", "_a_",
      "patrick_molloy", "0", "00a",
      std::string("caf\xc3\xa9"), std::string("\xc3\xa9t\xc3\xa9"),
      std::string("\xff"), std::string("\x80" "abc"), std::string("ab\x80"),
      std::string("nu\0ll", 5), std::string("\0", 1),
      std::string("x\0y", 3), "a", "I", "u", "ok", "OK", "Ok", "rt", "RT",
  };
  return kFragments;
}

const std::vector<std::string>& Separators() {
  static const std::vector<std::string> kSeparators = {
      " ", " ", " ", "  ", "\t", ",", ".", "!!", "\n", "-", "\x7f",
      std::string("\0", 1), std::string("\xa0"), "",
  };
  return kSeparators;
}

/// Single characters for the byte-soup texts.
const std::string& SoupAlphabet() {
  static const std::string kSoup =
      std::string("aBzZeE09_#@' ,.\t") + std::string("\0\x80\xff\xc3", 4);
  return kSoup;
}

std::string HostileText(Rng& rng) {
  const uint64_t kind = rng.Uniform(10);
  if (kind == 0) return "";
  if (kind == 1) {
    const char* kBlank[] = {" ", "   ", "\t\n", " \r\n "};
    return kBlank[rng.Uniform(4)];
  }
  std::string text;
  if (kind == 2) {
    const uint64_t len = rng.Uniform(40);
    for (uint64_t i = 0; i < len; ++i) {
      text.push_back(SoupAlphabet()[rng.Uniform(SoupAlphabet().size())]);
    }
    return text;
  }
  const uint64_t n = 1 + rng.Uniform(12);
  for (uint64_t i = 0; i < n; ++i) {
    if (i > 0) text += Separators()[rng.Uniform(Separators().size())];
    text += Fragments()[rng.Uniform(Fragments().size())];
  }
  return text;
}

Corpus HostileCorpus(uint64_t seed, int records) {
  Rng rng(seed);
  Corpus corpus;
  for (int i = 0; i < records; ++i) {
    RawRecord r;
    r.id = 1000 + i;
    r.user_id = static_cast<int64_t>(rng.Uniform(7));
    r.timestamp = 60.0 * i;
    r.location = {0.5 * i, 1.0};
    r.text = HostileText(rng);
    corpus.Add(std::move(r));
  }
  return corpus;
}

/// Option sets that exercise every rule switch, the prune edges (a count
/// floor at or below zero, a tiny cap) and kept empty records.
std::vector<CorpusBuildOptions> OptionMatrix() {
  std::vector<CorpusBuildOptions> matrix;
  CorpusBuildOptions base;
  matrix.push_back(base);
  CorpusBuildOptions o = base;
  o.min_word_count = 0;
  o.drop_empty_records = false;
  matrix.push_back(o);
  o = base;
  o.min_word_count = -1;
  o.max_vocab_size = 7;
  matrix.push_back(o);
  o = base;
  o.tokenizer.lowercase = false;
  o.min_word_count = 1;
  matrix.push_back(o);
  o = base;
  o.tokenizer.remove_stopwords = false;
  o.tokenizer.keep_mentions = true;
  o.min_word_count = 1;
  matrix.push_back(o);
  o = base;
  o.tokenizer.min_token_length = 0;
  o.min_word_count = 3;
  matrix.push_back(o);
  o = base;
  o.tokenizer.min_token_length = 4;
  o.tokenizer.keep_mentions = true;
  o.drop_empty_records = false;
  matrix.push_back(o);
  return matrix;
}

/// Compares Build with RefBuild; `phrases` (if set) gets the number of
/// merges the reference learned.
::testing::AssertionResult SameAsReference(const Corpus& corpus,
                                           const CorpusBuildOptions& options,
                                           std::size_t* phrases = nullptr) {
  const RefResult want = RefBuild(corpus, options);
  if (phrases != nullptr) *phrases = want.phrases;
  auto got = TokenizedCorpus::Build(corpus, options);
  if (got.ok() != want.ok) {
    return ::testing::AssertionFailure()
           << "status " << got.status().ToString() << " vs reference "
           << (want.ok ? "ok" : "error");
  }
  if (!want.ok) return ::testing::AssertionSuccess();
  const Vocabulary& vocab = got->vocab();
  if (vocab.words() != want.vocab.words) {
    return ::testing::AssertionFailure()
           << "vocabulary differs: " << vocab.size() << " vs "
           << want.vocab.words.size() << " words";
  }
  if (vocab.counts() != want.vocab.counts) {
    return ::testing::AssertionFailure() << "vocabulary counts differ";
  }
  if (got->size() != want.record_ids.size()) {
    return ::testing::AssertionFailure()
           << got->size() << " records kept vs " << want.record_ids.size();
  }
  for (std::size_t i = 0; i < got->size(); ++i) {
    if (got->record(i).id != want.record_ids[i]) {
      return ::testing::AssertionFailure()
             << "kept record " << i << " is " << got->record(i).id << " vs "
             << want.record_ids[i];
    }
    if (got->record(i).word_ids != want.word_ids[i]) {
      return ::testing::AssertionFailure()
             << "word ids of record " << got->record(i).id << " differ";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(CorpusBuildPropertyTest, TokenizeMatchesReference) {
  for (const CorpusBuildOptions& options : OptionMatrix()) {
    const Tokenizer tokenizer(options.tokenizer);
    const auto& set = tokenizer.stopwords();
    const std::unordered_set<std::string> stopwords(set.begin(), set.end());
    Rng rng(20261019);
    for (int i = 0; i < 2000; ++i) {
      const std::string text = HostileText(rng);
      ASSERT_EQ(tokenizer.Tokenize(text),
                RefTokenize(text, options.tokenizer, stopwords))
          << "text #" << i;
    }
  }
}

TEST(CorpusBuildPropertyTest, BuildMatchesReference) {
  const std::vector<CorpusBuildOptions> matrix = OptionMatrix();
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const Corpus corpus = HostileCorpus(seed, 150 + 25 * (seed % 4));
    for (std::size_t m = 0; m < matrix.size(); ++m) {
      ASSERT_TRUE(SameAsReference(corpus, matrix[m]))
          << "seed " << seed << ", option set " << m;
    }
  }
}

TEST(CorpusBuildPropertyTest, BuildWithPhrasesMatchesReference) {
  const std::vector<CorpusBuildOptions> matrix = OptionMatrix();
  std::size_t learned = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    const Corpus corpus = HostileCorpus(seed, 300);
    for (std::size_t m = 0; m < matrix.size(); ++m) {
      CorpusBuildOptions options = matrix[m];
      options.detect_phrases = true;
      // Low bars so the small corpora do merge.
      options.phrase.threshold = 1.0;
      options.phrase.min_count = 2;
      options.phrase.discount = 1.0;
      std::size_t phrases = 0;
      ASSERT_TRUE(SameAsReference(corpus, options, &phrases))
          << "seed " << seed << ", option set " << m;
      learned += phrases;
    }
  }
  // The phrase path is only tested if merges were learned.
  EXPECT_GT(learned, 0u);
}

}  // namespace
}  // namespace actor
