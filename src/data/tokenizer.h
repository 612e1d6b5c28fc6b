#ifndef ACTOR_DATA_TOKENIZER_H_
#define ACTOR_DATA_TOKENIZER_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "util/string_util.h"

namespace actor {

/// Options for text normalization (paper §4.1: "some frequent and
/// meaningless words are removed").
struct TokenizerOptions {
  /// Tokens shorter than this are dropped.
  int min_token_length = 2;
  /// Drop tokens that appear in the built-in English stop list.
  bool remove_stopwords = true;
  /// Lowercase all tokens.
  bool lowercase = true;
  /// Keep "@handle" mention tokens (normally stripped; mentions live in
  /// RawRecord::mentioned_user_ids instead).
  bool keep_mentions = false;
};

/// Splits free text into normalized keyword tokens: lowercases, splits on
/// non-alphanumeric characters (underscore kept so venue keywords like
/// "patrick_molloy_sport_pub" survive as one unit), drops stop words,
/// numbers-only tokens, and short tokens. NextToken is the one scanner:
/// Tokenize and TokenizedCorpus::Build both step through it.
class Tokenizer {
 public:
  using StopwordSet =
      std::unordered_set<std::string, StringHash, std::equal_to<>>;

  explicit Tokenizer(TokenizerOptions options = {});

  std::vector<std::string> Tokenize(std::string_view text) const;

  /// Finds the next token of `text` at or after `*pos` that survives every
  /// rule but the stop list, writes it normalized into `*buf` (reused
  /// across calls) and advances `*pos` past it. Returns false, with
  /// `*pos == text.size()`, once no token is left. The caller applies the
  /// stop list: Tokenize through IsStopword, Build through its dictionary.
  bool NextToken(std::string_view text, std::size_t* pos,
                 std::string* buf) const;

  /// True if `word` is in the stop list used by this tokenizer.
  bool IsStopword(std::string_view word) const;

  /// The stop list this tokenizer drops; empty when remove_stopwords is off.
  const StopwordSet& stopwords() const { return stopwords_; }

 private:
  TokenizerOptions options_;
  StopwordSet stopwords_;
};

}  // namespace actor

#endif  // ACTOR_DATA_TOKENIZER_H_
