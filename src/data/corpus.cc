#include "data/corpus.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <unordered_set>

#include "util/string_util.h"

namespace actor {

std::size_t Corpus::CountDistinctUsers() const {
  std::unordered_set<int64_t> users;
  for (const auto& r : records_) {
    users.insert(r.user_id);
    users.insert(r.mentioned_user_ids.begin(), r.mentioned_user_ids.end());
  }
  return users.size();
}

double Corpus::MentionFraction() const {
  if (records_.empty()) return 0.0;
  std::size_t with_mentions = 0;
  for (const auto& r : records_) {
    if (!r.mentioned_user_ids.empty()) ++with_mentions;
  }
  return static_cast<double>(with_mentions) /
         static_cast<double>(records_.size());
}

Result<TokenizedCorpus> TokenizedCorpus::Build(
    const Corpus& corpus, const CorpusBuildOptions& options) {
  if (corpus.empty()) {
    return Status::InvalidArgument("cannot tokenize an empty corpus");
  }
  if (options.max_vocab_size <= 0) {
    return Status::InvalidArgument("max_vocab_size must be positive");
  }
  Tokenizer tokenizer(options.tokenizer);

  // Pass 1: one scan of each text. Every token is interned with a single
  // lookup into `seen`, a first-seen dictionary that also counts it. The
  // stop list is interned first, so ids below `first_word` are stop words
  // and that same lookup applies the stop rule. A record's kept ids are
  // ids[ends[i-1], ends[i]).
  Vocabulary seen;
  for (const std::string& stop : tokenizer.stopwords()) {
    seen.AddOccurrence(stop, 0);
  }
  int32_t first_word = seen.size();
  std::vector<int32_t> ids;
  std::vector<std::size_t> ends(corpus.size());
  std::string buf;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::string& text = corpus.record(i).text;
    std::size_t pos = 0;
    while (tokenizer.NextToken(text, &pos, &buf)) {
      const int32_t id = seen.AddOccurrence(buf);
      if (id >= first_word) ids.push_back(id);
    }
    ends[i] = ids.size();
  }
  if (options.detect_phrases) {
    // Phrases merge strings, so only this path spells the tokens out; the
    // merged tokens are then counted in a dictionary of their own.
    std::vector<std::vector<std::string>> docs(corpus.size());
    for (std::size_t i = 0, k = 0; i < corpus.size(); ++i) {
      for (; k < ends[i]; ++k) docs[i].push_back(seen.word(ids[k]));
    }
    ACTOR_ASSIGN_OR_RETURN(PhraseDetector phrases,
                           PhraseDetector::Learn(docs, options.phrase));
    Vocabulary merged;
    ids.clear();
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      for (const auto& tok : phrases.Apply(std::move(docs[i]))) {
        ids.push_back(merged.AddOccurrence(tok));
      }
      ends[i] = ids.size();
    }
    seen = std::move(merged);
    first_word = 0;
  }

  // Prune: the kept words in their new id order, and old id -> new id.
  const auto counts = std::span(seen.counts()).subspan(first_word);
  Vocabulary vocab;
  std::vector<int32_t> remap(seen.size(), -1);
  for (int32_t k : Vocabulary::PruneOrder(counts, options.min_word_count,
                                          options.max_vocab_size)) {
    remap[first_word + k] =
        vocab.AddOccurrence(seen.word(first_word + k), counts[k]);
  }

  // Pass 2: remap ids.
  std::vector<TokenizedRecord> records;
  records.reserve(corpus.size());
  for (std::size_t i = 0, k = 0; i < corpus.size(); ++i) {
    const RawRecord& raw = corpus.record(i);
    TokenizedRecord rec;
    rec.id = raw.id;
    rec.user_id = raw.user_id;
    rec.timestamp = raw.timestamp;
    rec.location = raw.location;
    rec.mentioned_user_ids = raw.mentioned_user_ids;
    rec.word_ids.reserve(ends[i] - k);
    for (; k < ends[i]; ++k) {
      const int32_t id = remap[ids[k]];
      if (id >= 0) rec.word_ids.push_back(id);
    }
    if (options.drop_empty_records && rec.word_ids.empty()) continue;
    records.push_back(std::move(rec));
  }
  if (records.empty()) {
    return Status::InvalidArgument(
        "all records were dropped during tokenization; relax the pruning "
        "options");
  }
  return TokenizedCorpus(std::move(vocab), std::move(records));
}

std::size_t TokenizedCorpus::CountDistinctUsers() const {
  std::unordered_set<int64_t> users;
  for (const auto& r : records_) {
    users.insert(r.user_id);
    users.insert(r.mentioned_user_ids.begin(), r.mentioned_user_ids.end());
  }
  return users.size();
}

Result<CorpusSplit> RandomSplit(std::size_t corpus_size,
                                std::size_t valid_size, std::size_t test_size,
                                uint64_t seed) {
  if (valid_size + test_size > corpus_size) {
    return Status::InvalidArgument(StrPrintf(
        "split sizes (%zu + %zu) exceed corpus size %zu", valid_size,
        test_size, corpus_size));
  }
  std::vector<std::size_t> perm(corpus_size);
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(seed);
  // Fisher-Yates.
  for (std::size_t i = corpus_size; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.Uniform(i)]);
  }
  CorpusSplit split;
  split.test.assign(perm.begin(), perm.begin() + test_size);
  split.valid.assign(perm.begin() + test_size,
                     perm.begin() + test_size + valid_size);
  split.train.assign(perm.begin() + test_size + valid_size, perm.end());
  return split;
}

TokenizedCorpus Subset(const TokenizedCorpus& corpus,
                       const std::vector<std::size_t>& indices) {
  std::vector<TokenizedRecord> records;
  records.reserve(indices.size());
  for (std::size_t i : indices) records.push_back(corpus.record(i));
  // The vocabulary is shared wholesale; ids remain valid.
  Vocabulary vocab = corpus.vocab();
  return TokenizedCorpus(std::move(vocab), std::move(records));
}

}  // namespace actor
