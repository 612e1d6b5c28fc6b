#include "data/tokenizer.h"

#include <cctype>

namespace actor {
namespace {

// Standard English stop list (SMART-style subset) plus social-media filler
// the paper's CrossMap pipeline removes.
const char* const kStopwords[] = {
    "a",    "about", "above", "after", "again", "all",   "am",    "an",
    "and",  "any",   "are",   "as",    "at",    "be",    "been",  "before",
    "being", "below", "between", "both", "but",  "by",    "can",   "cannot",
    "could", "did",  "do",    "does",  "doing", "down",  "during", "each",
    "few",  "for",   "from",  "further", "had", "has",   "have",  "having",
    "he",   "her",   "here",  "hers",  "him",   "his",   "how",   "i",
    "if",   "in",    "into",  "is",    "it",    "its",   "just",  "me",
    "more", "most",  "my",    "no",    "nor",   "not",   "now",   "of",
    "off",  "on",    "once",  "only",  "or",    "other", "our",   "ours",
    "out",  "over",  "own",   "same",  "she",   "should", "so",   "some",
    "such", "than",  "that",  "the",   "their", "them",  "then",  "there",
    "these", "they", "this",  "those", "through", "to",  "too",   "under",
    "until", "up",   "very",  "was",   "we",    "were",  "what",  "when",
    "where", "which", "while", "who",  "whom",  "why",   "will",  "with",
    "would", "you",  "your",  "yours", "im",    "rt",    "via",   "amp",
    "gonna", "gotta", "lol",  "u",     "ur",    "dont",  "cant",  "aint",
};

/// Per-byte classes for the scanner, built once from the <cctype>
/// predicates so the rules stay those of the C library: a token is a
/// maximal run of alphanumerics and `_ # @ '`; a numbers-only token holds
/// nothing but digits and `_`.
struct CharTable {
  enum : unsigned char { kToken = 1, kDigitLike = 2 };
  unsigned char flags[256];
  char lower[256];

  CharTable() {
    for (int c = 0; c < 256; ++c) {
      const bool token = std::isalnum(c) || c == '_' || c == '#' ||
                         c == '@' || c == '\'';
      const bool digit_like = std::isdigit(c) || c == '_';
      flags[c] = static_cast<unsigned char>((token ? kToken : 0) |
                                            (digit_like ? kDigitLike : 0));
      lower[c] = static_cast<char>(std::tolower(c));
    }
  }
  bool token(char c) const {
    return flags[static_cast<unsigned char>(c)] & kToken;
  }
  bool digit_like(char c) const {
    return flags[static_cast<unsigned char>(c)] & kDigitLike;
  }
  char to_lower(char c) const { return lower[static_cast<unsigned char>(c)]; }
};

const CharTable& Chars() {
  static const CharTable table;
  return table;
}

}  // namespace

Tokenizer::Tokenizer(TokenizerOptions options) : options_(options) {
  if (options_.remove_stopwords) {
    for (const char* w : kStopwords) stopwords_.insert(w);
  }
}

bool Tokenizer::IsStopword(std::string_view word) const {
  return stopwords_.find(word) != stopwords_.end();
}

bool Tokenizer::NextToken(std::string_view text, std::size_t* pos,
                          std::string* buf) const {
  const CharTable& chars = Chars();
  const std::size_t n = text.size();
  std::size_t i = *pos;
  while (i < n) {
    while (i < n && !chars.token(text[i])) ++i;
    const std::size_t start = i;
    while (i < n && chars.token(text[i])) ++i;
    if (i == start) break;
    if (text[start] == '@' && !options_.keep_mentions) continue;

    // Strip a leading '#' (hashtags) and apostrophes anywhere, lowercase,
    // and note whether anything but digits and '_' is left.
    buf->resize(i - start);
    char* out = buf->data();
    std::size_t len = 0;
    bool digits_only = true;
    for (std::size_t k = start; k < i; ++k) {
      char c = text[k];
      if ((c == '#' && k == start) || c == '\'') continue;
      if (options_.lowercase) c = chars.to_lower(c);
      digits_only = digits_only && chars.digit_like(c);
      out[len++] = c;
    }
    buf->resize(len);
    if (static_cast<int>(len) < options_.min_token_length) continue;
    if (digits_only) continue;
    *pos = i;
    return true;
  }
  *pos = n;
  return false;
}

std::vector<std::string> Tokenizer::Tokenize(std::string_view text) const {
  std::vector<std::string> tokens;
  std::string buf;
  std::size_t pos = 0;
  while (NextToken(text, &pos, &buf)) {
    if (!IsStopword(buf)) tokens.push_back(buf);
  }
  return tokens;
}

}  // namespace actor
