#ifndef ACTOR_UTIL_STRING_UTIL_H_
#define ACTOR_UTIL_STRING_UTIL_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace actor {

/// Transparent string hash: lets a container keyed by std::string be
/// searched with a std::string_view (paired with std::equal_to<>), so a
/// lookup builds no temporary string.
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Splits `s` on `delim`, keeping empty fields. Split("a,,b", ',') ->
/// {"a", "", "b"}.
std::vector<std::string> Split(std::string_view s, char delim);

/// Splits on any run of ASCII whitespace, dropping empty tokens.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `delim` between consecutive elements.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view delim);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace actor

#endif  // ACTOR_UTIL_STRING_UTIL_H_
