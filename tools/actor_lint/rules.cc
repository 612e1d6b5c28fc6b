#include "rules.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "callgraph.h"
#include "cfg.h"
#include "lexer.h"
#include "symbols.h"

namespace actor_lint {

namespace {

/// Joins `dir` + "/" + `rel` and resolves "." / ".." segments (pure string
/// math — never touches the filesystem, so virtual repos work in tests).
std::string JoinNormalize(const std::string& dir, const std::string& rel) {
  std::vector<std::string> parts;
  auto push = [&parts](const std::string& p) {
    std::size_t b = 0;
    while (b <= p.size()) {
      const std::size_t e = std::min(p.find('/', b), p.size());
      const std::string seg = p.substr(b, e - b);
      if (seg == "..") {
        if (!parts.empty()) parts.pop_back();
      } else if (!seg.empty() && seg != ".") {
        parts.push_back(seg);
      }
      b = e + 1;
    }
  };
  push(dir);
  push(rel);
  std::string out;
  for (const auto& p : parts) {
    if (!out.empty()) out += '/';
    out += p;
  }
  return out;
}

std::string DirName(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  return slash == kNpos ? std::string() : path.substr(0, slash);
}

// --- R1: parallelism flows through util/thread_pool ------------------------

void CheckThread(const LexedFile& f, std::vector<Finding>* out) {
  if (StartsWith(f.path, "src/util/thread_pool")) return;
  const std::string& code = f.code;
  std::size_t pos = 0;
  while ((pos = FindToken(code, pos, "std")) != kNpos) {
    const std::size_t after_std = SkipWs(code, pos + 3);
    if (code.compare(after_std, 2, "::") != 0) {
      pos += 3;
      continue;
    }
    const std::size_t name_pos = SkipWs(code, after_std + 2);
    const char* banned = nullptr;
    for (const char* word : {"thread", "jthread", "async"}) {
      if (TokenAt(code, name_pos, word)) {
        banned = word;
        break;
      }
    }
    if (banned == nullptr) {
      pos += 3;
      continue;
    }
    // std::thread::hardware_concurrency() is a pure CPU query, not a
    // parallelism primitive — the one historical exemption of grep L1.
    std::size_t tail = SkipWs(
        code, name_pos + std::char_traits<char>::length(banned));
    bool allowed = false;
    if (code.compare(tail, 2, "::") == 0) {
      tail = SkipWs(code, tail + 2);
      allowed = TokenAt(code, tail, "hardware_concurrency");
    }
    if (!allowed) {
      out->push_back(
          {f.path, f.LineAt(name_pos), kRuleThread,
           std::string("raw std::") + banned +
               " outside util/thread_pool — all parallelism must go "
               "through ThreadPool (ShardedRange/ParallelFor/Submit)"});
    }
    pos = name_pos;
  }
}

// --- R2: randomness/clocks flow through util/rng.h, util/stopwatch.h -------

void CheckRng(const LexedFile& f, std::vector<Finding>* out) {
  if (f.path == "src/util/rng.h" || f.path == "src/util/stopwatch.h") return;
  const std::string& code = f.code;

  // Member access (x.time(), x->time()) and non-std qualification
  // (Foo::time()) are fine; bare and std:: calls hit libc/std.
  auto banned_call = [&code](std::size_t pos) {
    std::size_t j = pos;
    while (j > 0 && IsSpace(code[j - 1])) --j;
    if (j >= 2 && code[j - 1] == ':' && code[j - 2] == ':') {
      std::size_t k = j - 2;
      while (k > 0 && IsSpace(code[k - 1])) --k;
      std::size_t b = k;
      while (b > 0 && IsIdentChar(code[b - 1])) --b;
      return code.compare(b, k - b, "std") == 0 || b == k;  // std:: or ::
    }
    if (j >= 1 && code[j - 1] == '.') return false;
    if (j >= 2 && code[j - 1] == '>' && code[j - 2] == '-') return false;
    return true;
  };
  for (const char* word : {"rand", "srand", "time"}) {
    std::size_t pos = 0;
    while ((pos = FindToken(code, pos, word)) != kNpos) {
      const std::size_t open =
          SkipWs(code, pos + std::char_traits<char>::length(word));
      if (open < code.size() && code[open] == '(' && banned_call(pos)) {
        out->push_back(
            {f.path, f.LineAt(pos), kRuleRng,
             std::string(word) +
                 "() breaks seed-reproducibility — use util/rng.h for "
                 "randomness, util/stopwatch.h for clocks"});
      }
      ++pos;
    }
  }
  std::size_t pos = 0;
  while ((pos = FindToken(code, pos, "random_device")) != kNpos) {
    out->push_back({f.path, f.LineAt(pos), kRuleRng,
                    "std::random_device is non-reproducible — derive seeds "
                    "through util/rng.h (SplitMix64/ShardSeed)"});
    ++pos;
  }
  pos = 0;
  while ((pos = FindToken(code, pos, "system_clock")) != kNpos) {
    std::size_t j = SkipWs(code, pos + 12);
    if (code.compare(j, 2, "::") == 0) {
      j = SkipWs(code, j + 2);
      if (TokenAt(code, j, "now")) {
        out->push_back(
            {f.path, f.LineAt(pos), kRuleRng,
             "std::chrono::system_clock::now() is wall-clock and "
             "non-reproducible — time through util/stopwatch.h "
             "(steady_clock)"});
      }
    }
    ++pos;
  }
}

// --- R3: no aligned SIMD load/store in kernel sources ----------------------

void CheckSimdAligned(const LexedFile& f, std::vector<Finding>* out) {
  if (!StartsWith(f.path, "src/")) return;
  const std::string& code = f.code;
  std::size_t pos = 0;
  while ((pos = code.find("_mm", pos)) != kNpos) {
    if (pos > 0 && IsIdentChar(code[pos - 1])) {
      pos += 3;
      continue;
    }
    std::size_t j = pos + 3;
    while (j < code.size() && std::isdigit(static_cast<unsigned char>(code[j]))) {
      ++j;
    }
    if (j >= code.size() || code[j] != '_') {
      pos += 3;
      continue;
    }
    ++j;
    bool op = false;
    for (const char* name : {"load", "store", "stream"}) {
      const std::size_t len = std::char_traits<char>::length(name);
      if (code.compare(j, len, name) == 0 && j + len < code.size() &&
          code[j + len] == '_') {
        j += len + 1;
        op = true;
        break;
      }
    }
    if (op && code.compare(j, 1, "p") == 0 && j + 1 < code.size() &&
        (code[j + 1] == 's' || code[j + 1] == 'd') &&
        (j + 2 >= code.size() || !IsIdentChar(code[j + 2]))) {
      out->push_back(
          {f.path, f.LineAt(pos), kRuleSimdAligned,
           code.substr(pos, j + 2 - pos) +
               " assumes alignment — kernels must tolerate arbitrary "
               "caller buffers, use the loadu/storeu forms"});
    }
    pos += 3;
  }
}

// --- R4: HOGWILD row discipline (interprocedural) --------------------------

struct Region {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// One manual `// actor-lint: hogwild-region` annotation: the next braced
/// scope after the comment. Still honored as a region (the escape hatch
/// for code the dispatch auto-detection cannot reach), but the call graph
/// now derives most regions itself — an annotation whose span is already
/// covered by the automatic propagation is reported as redundant.
struct Annotation {
  int file = -1;
  int comment_line = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t comment_begin = 0;  // offset of the comment (for --fix)
};

std::vector<Annotation> CollectAnnotations(
    const std::vector<LexedFile>& lexed) {
  std::vector<Annotation> out;
  for (int fi = 0; fi < static_cast<int>(lexed.size()); ++fi) {
    const LexedFile& f = lexed[static_cast<std::size_t>(fi)];
    for (const Comment& c : f.comments) {
      if (c.text.find("actor-lint: hogwild-region") == kNpos) continue;
      const std::size_t open = f.code.find('{', c.begin);
      if (open == kNpos) continue;
      const std::size_t close = MatchForward(f.code, open);
      if (close != kNpos) out.push_back({fi, c.line, open, close, c.begin});
    }
  }
  return out;
}

/// Second half of R4: dirty-row bookkeeping inside a HOGWILD region. A
/// shard may only mark rows in a set it exclusively owns — the
/// `DirtyRowSet*` parameter threaded into the shard helper or a
/// subscripted per-shard slot (`owned_dirty_[shard]`). Writing a plain
/// member set (trailing-underscore receiver, e.g. `dirty_.Mark(u)`) from
/// inside a region is a data race: DirtyRowSet is a plain bitset with no
/// atomics, shared across all running shards.
void CheckDirtyMarks(const LexedFile& f, const std::vector<Region>& regions,
                     std::vector<Finding>* out) {
  const std::string& code = f.code;
  std::set<std::size_t> reported;
  for (const Region& region : regions) {
    for (const char* method : {"Mark", "MarkAll", "Clear"}) {
      std::size_t pos = region.begin;
      while ((pos = FindToken(code, pos, method)) != kNpos &&
             pos < region.end) {
        const std::size_t call_pos = pos;
        ++pos;
        // Must be a call: Method(...)
        const std::size_t open = SkipWs(
            code, call_pos + std::char_traits<char>::length(method));
        if (open >= code.size() || code[open] != '(') continue;
        // Receiver scan: `.` or `->` immediately before the method name.
        long j = static_cast<long>(call_pos) - 1;
        while (j >= 0 && IsSpace(code[static_cast<std::size_t>(j)])) --j;
        if (j >= 1 && code[static_cast<std::size_t>(j)] == '>' &&
            code[static_cast<std::size_t>(j) - 1] == '-') {
          j -= 2;
        } else if (j >= 0 && code[static_cast<std::size_t>(j)] == '.') {
          j -= 1;
        } else {
          continue;  // free function / constructor — not a receiver call
        }
        while (j >= 0 && IsSpace(code[static_cast<std::size_t>(j)])) --j;
        // Subscripted receiver (`owned_dirty_[shard].Mark`) is the
        // per-shard slot idiom — exclusively owned, allowed.
        if (j >= 0 && code[static_cast<std::size_t>(j)] == ']') continue;
        // Plain identifier receiver: flag only the member-naming
        // convention (trailing underscore). Locals and the threaded
        // `DirtyRowSet* dirty` parameter pass.
        const long id_end = j;
        while (j >= 0 && IsIdentChar(code[static_cast<std::size_t>(j)])) {
          --j;
        }
        if (id_end < 0 || j == id_end) continue;
        if (code[static_cast<std::size_t>(id_end)] != '_') continue;
        if (reported.insert(call_pos).second) {
          out->push_back(
              {f.path, f.LineAt(call_pos), kRuleHogwild,
               "member dirty-row set written from inside a HOGWILD region "
               "— mark the shard-owned set instead (the DirtyRowSet* shard "
               "parameter or a per-shard slot such as owned_dirty_[shard])"});
        }
      }
    }
  }
}

void CheckHogwild(const LexedFile& f, const std::vector<Region>& regions,
                  std::vector<Finding>* out) {
  if (regions.empty()) return;
  CheckDirtyMarks(f, regions, out);
  const std::string& code = f.code;
  std::set<std::size_t> reported;
  for (const Region& region : regions) {
    std::size_t pos = region.begin;
    while ((pos = FindToken(code, pos, "row")) != kNpos &&
           pos < region.end) {
      const std::size_t row_pos = pos;
      ++pos;
      // Must be a member call: m.row(...) / m->row(...).
      long j = static_cast<long>(row_pos) - 1;
      while (j >= 0 && IsSpace(code[static_cast<std::size_t>(j)])) --j;
      bool arrow = false;
      if (j >= 1 && code[static_cast<std::size_t>(j)] == '>' &&
          code[static_cast<std::size_t>(j) - 1] == '-') {
        arrow = true;
      } else if (!(j >= 0 && code[static_cast<std::size_t>(j)] == '.')) {
        continue;
      }
      const std::size_t open = SkipWs(code, row_pos + 3);
      if (open >= code.size() || code[open] != '(') continue;
      const std::size_t close = MatchForward(code, open);
      if (close == kNpos) continue;
      const std::size_t after = SkipWs(code, close + 1);
      if (after >= code.size() || code[after] != '[') continue;
      // Direct element access on a shared row. Allowed only when the whole
      // expression sits inside RelaxedLoad(...) / RelaxedStore(...).
      j -= arrow ? 2 : 1;
      while (j >= 0) {
        const char ch = code[static_cast<std::size_t>(j)];
        if (IsIdentChar(ch) || ch == '.' || ch == ':') {
          --j;
        } else if (ch == '>' && j >= 1 &&
                   code[static_cast<std::size_t>(j) - 1] == '-') {
          j -= 2;
        } else if (ch == ']' || ch == ')') {
          const std::size_t m = MatchBackward(
              code, static_cast<std::size_t>(j), ch == ']' ? '[' : '(',
              ch);
          if (m == kNpos) break;
          j = static_cast<long>(m) - 1;
        } else {
          break;
        }
      }
      while (j >= 0 && IsSpace(code[static_cast<std::size_t>(j)])) --j;
      while (j >= 0 && (code[static_cast<std::size_t>(j)] == '&' ||
                        code[static_cast<std::size_t>(j)] == '*')) {
        --j;
      }
      while (j >= 0 && IsSpace(code[static_cast<std::size_t>(j)])) --j;
      bool wrapped = false;
      if (j >= 0 && code[static_cast<std::size_t>(j)] == '(') {
        --j;
        while (j >= 0 && IsSpace(code[static_cast<std::size_t>(j)])) --j;
        const long id_end = j;
        while (j >= 0 && IsIdentChar(code[static_cast<std::size_t>(j)])) {
          --j;
        }
        const std::string callee = code.substr(
            static_cast<std::size_t>(j + 1),
            static_cast<std::size_t>(id_end - j));
        wrapped = callee == "RelaxedLoad" || callee == "RelaxedStore";
      }
      if (!wrapped && reported.insert(row_pos).second) {
        out->push_back(
            {f.path, f.LineAt(row_pos), kRuleHogwild,
             "direct element access to a shared embedding row inside a "
             "HOGWILD region — go through the vec_math kernel API "
             "(SharedNegativeBlock/Axpy/Add/...) or "
             "RelaxedLoad/RelaxedStore"});
      }
    }
  }
}

// --- R8: the serving read path never mutates embeddings --------------------

/// True when the `row` token at `row_pos` is a member call (`m.row(` /
/// `m->row(`). Mirrors the receiver scan in CheckHogwild.
bool IsRowMemberCall(const std::string& code, std::size_t row_pos) {
  long j = static_cast<long>(row_pos) - 1;
  while (j >= 0 && IsSpace(code[static_cast<std::size_t>(j)])) --j;
  if (j >= 1 && code[static_cast<std::size_t>(j)] == '>' &&
      code[static_cast<std::size_t>(j) - 1] == '-') {
    return true;
  }
  return j >= 0 && code[static_cast<std::size_t>(j)] == '.';
}

void CheckServeReadOnly(const LexedFile& f, std::vector<Finding>* out) {
  if (!StartsWith(f.path, "src/eval/") && !StartsWith(f.path, "src/serve/")) {
    return;
  }
  const std::string& code = f.code;

  // (a) Member calls to EmbeddingMatrix mutators.
  for (const char* mutator :
       {"InitUniform", "InitZero", "SetRow", "AppendRows"}) {
    std::size_t pos = 0;
    while ((pos = FindToken(code, pos, mutator)) != kNpos) {
      const std::size_t hit = pos;
      pos += std::char_traits<char>::length(mutator);
      if (!IsRowMemberCall(code, hit)) continue;
      const std::size_t open = SkipWs(code, pos);
      if (open >= code.size() || code[open] != '(') continue;
      out->push_back(
          {f.path, f.LineAt(hit), kRuleServeReadOnly,
           std::string("embedding mutation `") + mutator +
               "` in the serving read path — eval/ and serve/ score "
               "immutable ModelSnapshots; mutate before publish instead"});
    }
  }

  // (b) Element writes through row(): `m.row(v)[i] = / += / -= ...`.
  std::size_t pos = 0;
  while ((pos = FindToken(code, pos, "row")) != kNpos) {
    const std::size_t row_pos = pos;
    ++pos;
    if (!IsRowMemberCall(code, row_pos)) continue;
    const std::size_t open = SkipWs(code, row_pos + 3);
    if (open >= code.size() || code[open] != '(') continue;
    const std::size_t close = MatchForward(code, open);
    if (close == kNpos) continue;
    const std::size_t bracket = SkipWs(code, close + 1);
    if (bracket >= code.size() || code[bracket] != '[') continue;
    const std::size_t bracket_close = MatchForward(code, bracket);
    if (bracket_close == kNpos) continue;
    const std::size_t after = SkipWs(code, bracket_close + 1);
    if (after >= code.size()) continue;
    const char c0 = code[after];
    const char c1 = after + 1 < code.size() ? code[after + 1] : '\0';
    const bool assign =
        (c0 == '=' && c1 != '=') ||
        ((c0 == '+' || c0 == '-' || c0 == '*' || c0 == '/') && c1 == '=');
    if (assign) {
      out->push_back(
          {f.path, f.LineAt(row_pos), kRuleServeReadOnly,
           "write through row() in the serving read path — published "
           "snapshots are immutable; copy the matrix before mutating"});
    }
  }

  // (c) row() passed as the mutated argument of a mutating kernel.
  struct MutKernel {
    const char* name;
    int mutated[5];  // 0-based arg indices; -1 = unused slot
  };
  static constexpr MutKernel kKernels[] = {
      {"Axpy", {2, -1, -1, -1, -1}},
      {"Scale", {1, -1, -1, -1, -1}},
      {"Add", {1, -1, -1, -1, -1}},
      {"Copy", {1, -1, -1, -1, -1}},
      {"Zero", {0, -1, -1, -1, -1}},
      {"NormalizeInPlace", {0, -1, -1, -1, -1}},
      {"RelaxedStore", {0, -1, -1, -1, -1}},
      // The center and the gradient output (context rows go by matrix).
      {"NegativeSamplingUpdate", {0, 8, -1, -1, -1}},
      // Centers, positives, negatives, gradient and coefficient scratch.
      {"SharedNegativeBlock", {0, 1, 3, 7, 8}},
  };
  for (const MutKernel& kernel : kKernels) {
    std::size_t kpos = 0;
    while ((kpos = FindToken(code, kpos, kernel.name)) != kNpos) {
      const std::size_t hit = kpos;
      kpos += std::char_traits<char>::length(kernel.name);
      const std::size_t open = SkipWs(code, kpos);
      if (open >= code.size() || code[open] != '(') continue;
      std::vector<std::pair<std::size_t, std::size_t>> args;
      if (!SplitCallArgs(code, open, &args)) continue;
      for (const int idx : kernel.mutated) {
        if (idx < 0 || static_cast<std::size_t>(idx) >= args.size()) {
          continue;
        }
        const std::size_t arg_row =
            FindToken(code, args[static_cast<std::size_t>(idx)].first, "row");
        if (arg_row != kNpos &&
            arg_row < args[static_cast<std::size_t>(idx)].second) {
          out->push_back(
              {f.path, f.LineAt(hit), kRuleServeReadOnly,
               std::string("`") + kernel.name +
                   "` mutates an embedding row in the serving read path — "
                   "eval/ and serve/ may only read published snapshots"});
          break;
        }
      }
    }
  }
}

// --- R9: snapshot lifetime -------------------------------------------------

/// Full argument spans (open, close) of every pool-dispatch call in the
/// file — `snap.get()` inside one is a raw snapshot pointer crossing the
/// dispatch boundary.
std::vector<std::pair<std::size_t, std::size_t>> DispatchCallSpans(
    const std::string& code) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  for (const char* dispatch : {"ShardedRange", "ParallelFor", "Submit"}) {
    std::size_t pos = 0;
    while ((pos = FindToken(code, pos, dispatch)) != kNpos) {
      const std::size_t open =
          SkipWs(code, pos + std::char_traits<char>::length(dispatch));
      ++pos;
      if (open >= code.size() || code[open] != '(') continue;
      const std::size_t close = MatchForward(code, open);
      if (close != kNpos) spans.emplace_back(open, close);
    }
  }
  return spans;
}

/// Results of SnapshotStore::Acquire() / CurrentSnapshot() may only live
/// as shared_ptr snapshot locals (storing the shared_ptr in a member is
/// fine — that is how QueryEngine pins a snapshot). What must
/// not happen: taking `.get()` on the temporary, storing a raw snapshot
/// pointer into a member (trailing-underscore target) or a static, or
/// letting a raw pointer cross a pool-dispatch boundary — the pointer
/// outlives nothing once the shared_ptr drops.
void CheckSnapshotLifetime(const LexedFile& f, std::vector<Finding>* out) {
  if (!StartsWith(f.path, "src/")) return;
  const std::string& code = f.code;

  std::set<std::string> snap_vars;
  for (const char* acc : {"Acquire", "CurrentSnapshot"}) {
    std::size_t pos = 0;
    while ((pos = FindToken(code, pos, acc)) != kNpos) {
      const std::size_t at = pos;
      pos += std::char_traits<char>::length(acc);
      const std::size_t open = SkipWs(code, pos);
      if (open >= code.size() || code[open] != '(') continue;
      const std::size_t close = MatchForward(code, open);
      if (close == kNpos) continue;
      const std::size_t after = SkipWs(code, close + 1);
      if (after < code.size() && code[after] == '.' &&
          TokenAt(code, SkipWs(code, after + 1), "get")) {
        out->push_back(
            {f.path, f.LineAt(at), kRuleSnapshotLifetime,
             std::string("raw pointer taken from the ") + acc +
                 "() temporary — the snapshot dies with the expression; "
                 "keep the shared_ptr<const ModelSnapshot> alive instead"});
        continue;
      }
      // Track `var = [store.]Acquire(...)` so later `var.get()` uses can
      // be checked. Walk the receiver chain backwards to the `=`.
      std::size_t j = PrevNonWs(code, at);
      while (j != kNpos) {
        const char c = code[j];
        if (IsIdentChar(c) || c == '.' || c == ':') {
          --j;
          j = j == kNpos ? kNpos : PrevNonWs(code, j + 1);
        } else if (c == '>' && j >= 1 && code[j - 1] == '-') {
          j = PrevNonWs(code, j - 1);
        } else {
          break;
        }
      }
      if (j == kNpos || code[j] != '=') continue;
      if (j >= 1 && (code[j - 1] == '=' || code[j - 1] == '!' ||
                     code[j - 1] == '<' || code[j - 1] == '>')) {
        continue;
      }
      const std::size_t name_end = PrevNonWs(code, j);
      if (name_end == kNpos || !IsIdentChar(code[name_end])) continue;
      std::size_t nb = name_end + 1;
      while (nb > 0 && IsIdentChar(code[nb - 1])) --nb;
      snap_vars.insert(code.substr(nb, name_end + 1 - nb));
    }
  }
  if (snap_vars.empty()) return;

  const auto dispatch_spans = DispatchCallSpans(code);
  std::size_t pos = 0;
  while ((pos = FindToken(code, pos, "get")) != kNpos) {
    const std::size_t at = pos;
    ++pos;
    const std::size_t open = SkipWs(code, at + 3);
    if (open >= code.size() || code[open] != '(') continue;
    // Receiver must be one of the tracked snapshot shared_ptr locals.
    std::size_t j = PrevNonWs(code, at);
    if (j == kNpos) continue;
    if (code[j] == '.') {
      j = PrevNonWs(code, j);
    } else if (j >= 1 && code[j] == '>' && code[j - 1] == '-') {
      j = PrevNonWs(code, j - 1);
    } else {
      continue;
    }
    if (j == kNpos || !IsIdentChar(code[j])) continue;
    std::size_t nb = j + 1;
    while (nb > 0 && IsIdentChar(code[nb - 1])) --nb;
    if (snap_vars.count(code.substr(nb, j + 1 - nb)) == 0) continue;

    // (c) raw pointer crossing a pool-dispatch boundary.
    bool in_dispatch = false;
    for (const auto& [db, de] : dispatch_spans) {
      if (db < at && at < de) {
        in_dispatch = true;
        break;
      }
    }
    if (in_dispatch) {
      out->push_back(
          {f.path, f.LineAt(at), kRuleSnapshotLifetime,
           "raw snapshot pointer crosses a pool-dispatch boundary — "
           "capture the shared_ptr<const ModelSnapshot> (by value) so the "
           "snapshot outlives the task"});
      continue;
    }
    // (a)/(b): stored into a member (trailing-underscore target) or a
    // static-initialized object.
    const std::size_t stmt_begin =
        code.find_last_of(";{}", nb) == kNpos ? 0
                                              : code.find_last_of(";{}", nb);
    std::size_t eq = PrevNonWs(code, nb);
    bool member_store = false;
    if (eq != kNpos && code[eq] == '=' &&
        !(eq >= 1 && (code[eq - 1] == '=' || code[eq - 1] == '!' ||
                      code[eq - 1] == '<' || code[eq - 1] == '>'))) {
      const std::size_t lhs_end = PrevNonWs(code, eq);
      if (lhs_end != kNpos && code[lhs_end] == '_') member_store = true;
    }
    const std::size_t static_pos = FindToken(code, stmt_begin, "static");
    const bool static_store = static_pos != kNpos && static_pos < at;
    if (member_store || static_store) {
      out->push_back(
          {f.path, f.LineAt(at), kRuleSnapshotLifetime,
           std::string("raw snapshot pointer stored into a ") +
               (member_store ? "member" : "static") +
               " — it dangles after the next publish retires the "
               "snapshot; store the shared_ptr<const ModelSnapshot> or "
               "re-Acquire() per request"});
    }
  }
}

// --- R10: no blocking on hot paths -----------------------------------------

/// Bans in one body/region span. Roots (the region/scoring boundary
/// itself) may allocate scratch but must not lock or do IO; everything
/// reachable beneath a root must not lock, do IO, *or* allocate.
void ScanHotSpan(const LexedFile& f, std::size_t begin, std::size_t end,
                 bool allow_alloc, const std::string& why,
                 std::set<std::size_t>* reported,
                 std::vector<Finding>* out) {
  const std::string& code = f.code;
  auto report = [&](std::size_t at, const std::string& what) {
    if (reported->insert(at).second) {
      out->push_back({f.path, f.LineAt(at), kRuleHotPath,
                      what + " " + why +
                          " — hot paths must stay non-blocking and "
                          "allocation-free; hoist this to the dispatch/"
                          "publish boundary (see --dump-callgraph)"});
    }
  };

  // Mutex acquisition.
  for (const char* tok :
       {"lock_guard", "unique_lock", "scoped_lock", "shared_lock",
        "pthread_mutex_lock"}) {
    std::size_t pos = begin;
    while ((pos = FindToken(code, pos, tok)) != kNpos && pos < end) {
      report(pos, std::string("mutex acquisition (") + tok + ")");
      ++pos;
    }
  }
  {
    std::size_t pos = begin;
    while ((pos = FindToken(code, pos, "lock")) != kNpos && pos < end) {
      const std::size_t at = pos;
      ++pos;
      const std::size_t open = SkipWs(code, at + 4);
      if (open >= code.size() || code[open] != '(') continue;
      if (!IsMemberAccess(code, at)) continue;
      report(at, "mutex acquisition (.lock())");
    }
  }

  // Blocking IO.
  for (const char* tok :
       {"cout", "cerr", "clog", "printf", "fprintf", "puts", "fputs",
        "fwrite", "fopen", "fflush", "popen", "system", "getline"}) {
    std::size_t pos = begin;
    while ((pos = FindToken(code, pos, tok)) != kNpos && pos < end) {
      report(pos, std::string("IO (") + tok + ")");
      ++pos;
    }
  }

  if (allow_alloc) return;

  // Heap allocation: new / make_* / malloc family / to_string.
  for (const char* tok :
       {"new", "make_unique", "make_shared", "malloc", "calloc", "realloc",
        "strdup", "to_string"}) {
    std::size_t pos = begin;
    while ((pos = FindToken(code, pos, tok)) != kNpos && pos < end) {
      report(pos, std::string("heap allocation (") + tok + ")");
      ++pos;
    }
  }
  // Growing-container member calls.
  for (const char* tok :
       {"push_back", "emplace_back", "emplace", "resize", "reserve",
        "insert", "append", "assign"}) {
    std::size_t pos = begin;
    while ((pos = FindToken(code, pos, tok)) != kNpos && pos < end) {
      const std::size_t at = pos;
      ++pos;
      const std::size_t open =
          SkipWs(code, at + std::char_traits<char>::length(tok));
      if (open >= code.size() || code[open] != '(') continue;
      if (!IsMemberAccess(code, at)) continue;
      report(at, std::string("heap allocation (") + tok + ")");
    }
  }
  // std:: container / std::string construction by value. References and
  // pointers to containers are reads, not allocations.
  for (const char* tok :
       {"string", "vector", "deque", "list", "map", "multimap", "set",
        "multiset", "unordered_map", "unordered_set", "function"}) {
    std::size_t pos = begin;
    while ((pos = FindToken(code, pos, tok)) != kNpos && pos < end) {
      const std::size_t at = pos;
      pos += std::char_traits<char>::length(tok);
      if (QualifierBefore(code, at) != "std") continue;
      std::size_t j = at + std::char_traits<char>::length(tok);
      j = SkipWs(code, j);
      if (j < code.size() && code[j] == '<') {
        // Match the template argument list (tolerating >> closers).
        int angle = 0;
        std::size_t k = j;
        for (; k < code.size(); ++k) {
          const char c = code[k];
          if (c == '<') ++angle;
          if (c == '>' && code[k - 1] != '-' && --angle == 0) break;
          if (c == ';' || c == '{') break;
        }
        if (k >= code.size() || code[k] != '>') continue;
        j = SkipWs(code, k + 1);
      }
      if (j >= code.size()) continue;
      const char c = code[j];
      if (IsIdentChar(c) || c == '(' || c == '{') {
        report(at, std::string("heap allocation (std::") + tok +
                       " constructed by value)");
      }
    }
  }
}

// --- R11: lock-order consistency (flow-sensitive, interprocedural) ----------

/// One lock name acquired at a site. `scope_end` is where the RAII guard
/// dies (the body end for manual `.lock()` acquisitions).
struct LockSite {
  std::string name;
  std::size_t offset = 0;
  std::size_t scope_end = 0;
};

/// One acquisition/release event in a function body, in source order. An
/// acquisition may carry several sites: `std::scoped_lock(a, b)` locks
/// atomically, so its own locks never order against each other.
struct LockEvent {
  std::size_t offset = 0;
  bool release = false;
  std::string release_name;
  std::vector<int> sites;  // indexes into FnLockInfo::sites
};

struct FnLockInfo {
  std::vector<LockSite> sites;
  std::vector<LockEvent> events;
};

/// Canonical lock spelling: whitespace dropped, leading &/* and `this->`
/// stripped, so `mu_`, `this->mu_` and `&mu_` order against each other.
std::string NormalizeLockName(const std::string& code, std::size_t b,
                              std::size_t e) {
  std::string out;
  for (std::size_t i = b; i < e && i < code.size(); ++i) {
    if (!IsSpace(code[i])) out += code[i];
  }
  while (!out.empty() && (out[0] == '&' || out[0] == '*')) out.erase(0, 1);
  if (StartsWith(out, "this->")) out.erase(0, 6);
  return out;
}

/// Position after an optional template argument list starting at `j`.
std::size_t SkipTemplateArgs(const std::string& code, std::size_t j) {
  if (j >= code.size() || code[j] != '<') return j;
  int depth = 0;
  for (std::size_t k = j; k < code.size(); ++k) {
    const char c = code[k];
    if (c == '<') ++depth;
    if (c == '>' && (k == 0 || code[k - 1] != '-') && --depth == 0) {
      return k + 1;
    }
    if (c == ';' || c == '{') break;
  }
  return j;
}

FnLockInfo CollectLockEvents(const std::string& code, std::size_t begin,
                             std::size_t end, const Cfg& cfg) {
  FnLockInfo info;
  std::vector<std::pair<std::size_t, LockEvent>> staged;
  for (const char* tok :
       {"lock_guard", "unique_lock", "scoped_lock", "shared_lock"}) {
    std::size_t pos = begin;
    while ((pos = FindToken(code, pos, tok)) != kNpos && pos < end) {
      const std::size_t at = pos;
      ++pos;
      std::size_t j =
          SkipWs(code, at + std::char_traits<char>::length(tok));
      j = SkipWs(code, SkipTemplateArgs(code, j));
      // Guard variable, then its constructor args. A use as a plain type
      // (parameter declarations, aliases) has no `name(...)` tail.
      const std::size_t name_b = j;
      while (j < code.size() && IsIdentChar(code[j])) ++j;
      if (j == name_b) continue;
      j = SkipWs(code, j);
      if (j >= code.size() || code[j] != '(') continue;
      std::vector<std::pair<std::size_t, std::size_t>> args;
      if (!SplitCallArgs(code, j, &args) || args.empty()) continue;
      LockEvent ev;
      ev.offset = at;
      const std::size_t scope_end = ScopeEndAt(cfg, at, end);
      const std::size_t take =
          std::string(tok) == "scoped_lock" ? args.size() : 1;
      for (std::size_t a = 0; a < take && a < args.size(); ++a) {
        std::string name =
            NormalizeLockName(code, args[a].first, args[a].second);
        if (name.empty() || name.find("defer_lock") != kNpos ||
            name.find("adopt_lock") != kNpos) {
          continue;
        }
        ev.sites.push_back(static_cast<int>(info.sites.size()));
        info.sites.push_back({std::move(name), at, scope_end});
      }
      if (!ev.sites.empty()) staged.emplace_back(at, std::move(ev));
    }
  }
  // Manual mu.lock()/mu.unlock() — held to the body end unless released.
  for (const char* tok : {"lock", "unlock"}) {
    std::size_t pos = begin;
    while ((pos = FindToken(code, pos, tok)) != kNpos && pos < end) {
      const std::size_t at = pos;
      ++pos;
      const std::size_t open =
          SkipWs(code, at + std::char_traits<char>::length(tok));
      if (open >= code.size() || code[open] != '(') continue;
      std::size_t j = PrevNonWs(code, at);
      if (j == kNpos) continue;
      if (code[j] == '.') {
        j = PrevNonWs(code, j);
      } else if (j >= 1 && code[j] == '>' && code[j - 1] == '-') {
        j = PrevNonWs(code, j - 1);
      } else {
        continue;
      }
      if (j == kNpos || !IsIdentChar(code[j])) continue;
      std::size_t nb = j + 1;
      while (nb > 0 && IsIdentChar(code[nb - 1])) --nb;
      std::string name = code.substr(nb, j + 1 - nb);
      LockEvent ev;
      ev.offset = at;
      if (code[at] == 'u') {  // unlock
        ev.release = true;
        ev.release_name = std::move(name);
      } else {
        ev.sites.push_back(static_cast<int>(info.sites.size()));
        info.sites.push_back({std::move(name), at, end});
      }
      staged.emplace_back(at, std::move(ev));
    }
  }
  std::sort(staged.begin(), staged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [o, ev] : staged) info.events.push_back(std::move(ev));
  return info;
}

/// R11: lock-sets tracked through the CFG, held-sets propagated across
/// calls via per-function summaries; reports (a) any lock held across a
/// pool dispatch or SnapshotStore::Publish and (b) any cycle in the global
/// lock-order graph.
void CheckLockOrder(const CallGraph& g,
                    const std::vector<std::vector<Cfg>>& cfgs,
                    const std::vector<char>& active,
                    std::vector<Finding>* out) {
  const int nnodes = static_cast<int>(g.nodes().size());
  auto is_dispatch_call = [](const CallSite& c) {
    return c.name == "ShardedRange" || c.name == "ParallelFor" ||
           c.name == "Submit" || c.name == "Publish";
  };

  // Per-node lock events (src/ only — fixtures and bench harnesses may
  // order their locks however they like).
  std::vector<FnLockInfo> fn(static_cast<std::size_t>(nnodes));
  std::vector<char> is_src(static_cast<std::size_t>(nnodes), 0);
  for (int node = 0; node < nnodes; ++node) {
    const std::size_t ni = static_cast<std::size_t>(node);
    if (!StartsWith(g.File(node).path, "src/")) continue;
    is_src[ni] = 1;
    const Symbol& sym = g.Sym(node);
    const Cfg& cfg =
        cfgs[static_cast<std::size_t>(g.FileIndex(node))]
            [static_cast<std::size_t>(g.nodes()[ni].sym)];
    fn[ni] = CollectLockEvents(g.File(node).code, sym.body_begin,
                               sym.body_end, cfg);
  }

  // Per-function summaries, closed transitively: which locks a call into
  // this function may acquire, and whether it may reach a dispatch/publish.
  struct LockSummary {
    std::set<std::string> acquires;
    bool dispatches = false;
  };
  std::vector<LockSummary> summary(static_cast<std::size_t>(nnodes));
  std::vector<std::vector<int>> callees(static_cast<std::size_t>(nnodes));
  for (int node = 0; node < nnodes; ++node) {
    const std::size_t ni = static_cast<std::size_t>(node);
    callees[ni] = g.ResolveAll(g.Sym(node).calls);
    if (!is_src[ni]) continue;
    for (const LockSite& s : fn[ni].sites) summary[ni].acquires.insert(s.name);
    for (const CallSite& c : g.Sym(node).calls) {
      if (is_dispatch_call(c)) summary[ni].dispatches = true;
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (int node = 0; node < nnodes; ++node) {
      const std::size_t ni = static_cast<std::size_t>(node);
      for (const int callee : callees[ni]) {
        const std::size_t ci = static_cast<std::size_t>(callee);
        if (!summary[ni].dispatches && summary[ci].dispatches) {
          summary[ni].dispatches = true;
          changed = true;
        }
        for (const std::string& a : summary[ci].acquires) {
          if (summary[ni].acquires.insert(a).second) changed = true;
        }
      }
    }
  }

  // Flow every function with local acquisitions; collect ordered edges
  // (held -> newly acquired, directly or through a callee summary) and
  // report held-across-dispatch on the way.
  std::map<std::pair<std::string, std::string>, std::pair<std::string, int>>
      edges;  // (from, to) -> representative file:line
  for (int node = 0; node < nnodes; ++node) {
    const std::size_t ni = static_cast<std::size_t>(node);
    if (!is_src[ni] || fn[ni].sites.empty()) continue;
    const LexedFile& f = g.File(node);
    const Symbol& sym = g.Sym(node);
    const Cfg& cfg =
        cfgs[static_cast<std::size_t>(g.FileIndex(node))]
            [static_cast<std::size_t>(g.nodes()[ni].sym)];
    const FnLockInfo& info = fn[ni];
    const bool report_file =
        active[static_cast<std::size_t>(g.FileIndex(node))] != 0;

    auto transfer_stmt = [&](std::set<int> facts, const CfgStmt& st,
                             bool report) {
      // RAII scope exit / loop back-edge kill: a fact is live exactly on
      // statements overlapping (site.offset, site.scope_end].
      for (auto it = facts.begin(); it != facts.end();) {
        const LockSite& s = info.sites[static_cast<std::size_t>(*it)];
        if (st.begin <= s.scope_end && st.end > s.offset) {
          ++it;
        } else {
          it = facts.erase(it);
        }
      }
      // Interleave acquisition/release events and call sites by offset.
      std::size_t ei = 0, ci = 0;
      const auto& evs = info.events;
      const auto& calls = sym.calls;
      while (ei < evs.size() || ci < calls.size()) {
        const bool ev_first =
            ci >= calls.size() ||
            (ei < evs.size() && evs[ei].offset <= calls[ci].offset);
        if (ev_first) {
          const LockEvent& ev = evs[ei++];
          if (ev.offset < st.begin || ev.offset >= st.end) continue;
          if (ev.release) {
            for (auto it = facts.begin(); it != facts.end();) {
              if (info.sites[static_cast<std::size_t>(*it)].name ==
                  ev.release_name) {
                it = facts.erase(it);
              } else {
                ++it;
              }
            }
            continue;
          }
          if (report) {
            for (const int held : facts) {
              const std::string& h =
                  info.sites[static_cast<std::size_t>(held)].name;
              for (const int s : ev.sites) {
                const std::string& l =
                    info.sites[static_cast<std::size_t>(s)].name;
                if (h != l) {
                  edges.emplace(std::make_pair(h, l),
                                std::make_pair(f.path, f.LineAt(ev.offset)));
                }
              }
            }
          }
          for (const int s : ev.sites) facts.insert(s);
        } else {
          const CallSite& c = calls[ci++];
          if (c.offset < st.begin || c.offset >= st.end) continue;
          if (facts.empty()) continue;
          const std::string& h0 =
              info.sites[static_cast<std::size_t>(*facts.begin())].name;
          if (is_dispatch_call(c)) {
            if (report && report_file) {
              out->push_back(
                  {f.path, f.LineAt(c.offset), kRuleLockOrder,
                   "lock '" + h0 + "' held across " + c.name +
                       " — release before dispatching/publishing (workers "
                       "and readers must never wait on a trainer lock)"});
            }
            continue;
          }
          LockSummary combined;
          for (const int callee : g.Resolve(c)) {
            const std::size_t cci = static_cast<std::size_t>(callee);
            if (summary[cci].dispatches) combined.dispatches = true;
            combined.acquires.insert(summary[cci].acquires.begin(),
                                     summary[cci].acquires.end());
          }
          if (!report) continue;
          if (combined.dispatches && report_file) {
            out->push_back(
                {f.path, f.LineAt(c.offset), kRuleLockOrder,
                 "lock '" + h0 + "' held across a call to '" + c.name +
                     "', which reaches a pool dispatch or "
                     "SnapshotStore::Publish — release before the call"});
          }
          for (const int held : facts) {
            const std::string& h =
                info.sites[static_cast<std::size_t>(held)].name;
            for (const std::string& l : combined.acquires) {
              if (h != l) {
                edges.emplace(std::make_pair(h, l),
                              std::make_pair(f.path, f.LineAt(c.offset)));
              }
            }
          }
        }
      }
      return facts;
    };

    const auto ins = ForwardDataflow(
        cfg, [&](int b, const std::set<int>& in) {
          std::set<int> facts = in;
          for (const CfgStmt& st :
               cfg.blocks[static_cast<std::size_t>(b)].stmts) {
            facts = transfer_stmt(std::move(facts), st, false);
          }
          return facts;
        });
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
      std::set<int> facts = ins[b];
      for (const CfgStmt& st : cfg.blocks[b].stmts) {
        facts = transfer_stmt(std::move(facts), st, true);
      }
    }
  }

  // Cycle detection over the global lock-order graph (DFS, one finding per
  // distinct cycle, canonicalized by rotating the smallest name first).
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [e, rep] : edges) adj[e.first].push_back(e.second);
  std::set<std::string> done;
  std::set<std::vector<std::string>> seen_cycles;
  std::vector<std::string> path;
  std::set<std::string> on_path;
  std::function<void(const std::string&)> dfs = [&](const std::string& v) {
    path.push_back(v);
    on_path.insert(v);
    const auto it = adj.find(v);
    if (it != adj.end()) {
      for (const std::string& w : it->second) {
        if (on_path.count(w) != 0) {
          const auto start = std::find(path.begin(), path.end(), w);
          std::vector<std::string> cyc(start, path.end());
          const auto min_it = std::min_element(cyc.begin(), cyc.end());
          std::rotate(cyc.begin(), min_it, cyc.end());
          if (seen_cycles.insert(cyc).second) {
            const auto& rep = edges.at(
                {cyc[0], cyc.size() > 1 ? cyc[1] : cyc[0]});
            std::string order;
            for (const std::string& l : cyc) order += l + " -> ";
            order += cyc[0];
            out->push_back(
                {rep.first, rep.second, kRuleLockOrder,
                 "lock-order cycle: " + order +
                     " — every thread must acquire these locks in one "
                     "global order or two of them can deadlock"});
          }
        } else if (done.count(w) == 0) {
          dfs(w);
        }
      }
    }
    on_path.erase(v);
    path.pop_back();
    done.insert(v);
  };
  for (const auto& [v, tos] : adj) {
    if (done.count(v) == 0) dfs(v);
  }
}

// --- R12: sanctioned atomic memory-order idioms ------------------------------

struct AtomicOp {
  std::size_t offset = 0;
  std::string op;                   // load/store/exchange/fetch_add/...
  std::vector<std::string> orders;  // named orders; empty = defaulted seq_cst
  bool publication = false;  // operates on an atomic<shared_ptr<...>> slot
};

/// Extracts every `memory_order_X` / `memory_order::X` named in the
/// argument list of the call whose '(' sits at `open`.
void ExtractOrders(const std::string& code, std::size_t open,
                   std::size_t close, std::vector<std::string>* orders) {
  std::size_t p = open;
  while ((p = code.find("memory_order", p)) != kNpos && p < close) {
    if (p > 0 && IsIdentChar(code[p - 1])) {
      p += 12;
      continue;
    }
    std::size_t j = p + 12;
    if (code.compare(j, 2, "::") == 0) {
      j += 2;
    } else if (j < code.size() && code[j] == '_') {
      j += 1;
    } else {
      p = j;
      continue;
    }
    std::size_t k = j;
    while (k < code.size() && IsIdentChar(code[k])) ++k;
    if (k > j) orders->push_back(code.substr(j, k - j));
    p = k;
  }
}

std::vector<AtomicOp> CollectAtomicOps(const LexedFile& f) {
  const std::string& code = f.code;
  std::vector<AtomicOp> ops;

  // Declared std::atomic<...> variables — member load()/store() calls on
  // anything else (streams, maps) are not atomics. Publication slots are
  // the atomic<shared_ptr<...>> ones.
  std::set<std::string> atomic_vars;
  std::set<std::string> publication_vars;
  std::size_t pos = 0;
  while ((pos = FindToken(code, pos, "atomic")) != kNpos) {
    const std::size_t at = pos;
    ++pos;
    std::size_t j = at + 6;
    if (j >= code.size() || code[j] != '<') continue;
    const std::size_t after = SkipTemplateArgs(code, j);
    if (after == j) continue;
    const std::string targs = code.substr(j, after - j);
    j = SkipWs(code, after);
    std::size_t nb = j;
    while (j < code.size() && IsIdentChar(code[j])) ++j;
    if (j == nb) continue;
    const std::string name = code.substr(nb, j - nb);
    atomic_vars.insert(name);
    if (targs.find("shared_ptr") != kNpos) publication_vars.insert(name);
  }

  auto receiver_name = [&code](std::size_t at) -> std::string {
    std::size_t j = PrevNonWs(code, at);
    if (j == kNpos) return {};
    if (code[j] == '.') {
      j = PrevNonWs(code, j);
    } else if (j >= 1 && code[j] == '>' && code[j - 1] == '-') {
      j = PrevNonWs(code, j - 1);
    } else {
      return {};
    }
    if (j == kNpos || !IsIdentChar(code[j])) return {};
    std::size_t nb = j + 1;
    while (nb > 0 && IsIdentChar(code[nb - 1])) --nb;
    return code.substr(nb, j + 1 - nb);
  };

  for (const char* op :
       {"load", "store", "exchange", "compare_exchange_weak",
        "compare_exchange_strong", "fetch_add", "fetch_sub", "fetch_and",
        "fetch_or", "fetch_xor", "test_and_set"}) {
    std::size_t p = 0;
    while ((p = FindToken(code, p, op)) != kNpos) {
      const std::size_t at = p;
      ++p;
      const std::size_t open =
          SkipWs(code, at + std::char_traits<char>::length(op));
      if (open >= code.size() || code[open] != '(') continue;
      if (!IsMemberAccess(code, at)) continue;
      const std::size_t close = MatchForward(code, open);
      if (close == kNpos) continue;
      AtomicOp o;
      o.offset = at;
      o.op = op;
      ExtractOrders(code, open, close, &o.orders);
      const std::string recv = receiver_name(at);
      o.publication = publication_vars.count(recv) != 0;
      const bool unambiguous =
          o.op != "load" && o.op != "store" && o.op != "exchange";
      if (!unambiguous) {
        bool is_atomic =
            !o.orders.empty() || atomic_vars.count(recv) != 0;
        if (!is_atomic) {
          // atomic_ref(...).store(...) style — receiver is an expression.
          const std::size_t sb = code.find_last_of(";{}", at);
          const std::size_t ar =
              FindToken(code, sb == kNpos ? 0 : sb, "atomic_ref");
          is_atomic = ar != kNpos && ar < at;
        }
        if (!is_atomic) continue;
      }
      ops.push_back(std::move(o));
    }
  }
  // Free-function API (the atomic<shared_ptr> fallback path).
  for (const char* tok :
       {"atomic_load", "atomic_store", "atomic_exchange",
        "atomic_load_explicit", "atomic_store_explicit",
        "atomic_exchange_explicit"}) {
    std::size_t p = 0;
    while ((p = FindToken(code, p, tok)) != kNpos) {
      const std::size_t at = p;
      ++p;
      const std::size_t open =
          SkipWs(code, at + std::char_traits<char>::length(tok));
      if (open >= code.size() || code[open] != '(') continue;
      if (IsMemberAccess(code, at)) continue;
      const std::size_t close = MatchForward(code, open);
      if (close == kNpos) continue;
      AtomicOp o;
      o.offset = at;
      const std::string t(tok);
      o.op = t.find("load") != kNpos    ? "load"
             : t.find("store") != kNpos ? "store"
                                        : "exchange";
      ExtractOrders(code, open, close, &o.orders);
      for (const std::string& v : publication_vars) {
        if (FindToken(code, open, v.c_str()) < close) {
          o.publication = true;
          break;
        }
      }
      ops.push_back(std::move(o));
    }
  }
  std::sort(ops.begin(), ops.end(),
            [](const AtomicOp& a, const AtomicOp& b) {
              return a.offset < b.offset;
            });
  return ops;
}

/// R12: deviations from the cataloged atomic idioms, each finding naming
/// the intended idiom (docs/static-analysis.md has the full table).
void CheckMemoryOrder(const LexedFile& f, const std::vector<Region>& regions,
                      const std::vector<Region>& hot_spans,
                      std::vector<Finding>* out) {
  if (!StartsWith(f.path, "src/")) return;
  const auto ops = CollectAtomicOps(f);
  if (ops.empty()) return;
  auto covered = [](const std::vector<Region>& rs, std::size_t at) {
    for (const Region& r : rs) {
      if (r.begin <= at && at < r.end) return true;
    }
    return false;
  };
  std::set<std::size_t> reported;
  for (const AtomicOp& op : ops) {
    std::string got = "a defaulted (seq_cst) order";
    if (!op.orders.empty()) {
      got = "memory_order_" + op.orders[0];
      for (std::size_t i = 1; i < op.orders.size(); ++i) {
        got += "/" + op.orders[i];
      }
    }
    if (covered(regions, op.offset)) {
      bool relaxed_only = !op.orders.empty();
      for (const std::string& o : op.orders) {
        if (o != "relaxed") relaxed_only = false;
      }
      if (!relaxed_only && reported.insert(op.offset).second) {
        out->push_back(
            {f.path, f.LineAt(op.offset), kRuleMemoryOrder,
             "atomic " + op.op + " with " + got +
                 " inside a HOGWILD region — the sanctioned idiom is "
                 "relaxed-only (RelaxedLoad/RelaxedStore or "
                 "std::memory_order_relaxed); cross-shard ordering belongs "
                 "to SnapshotStore::Publish at the batch barrier"});
      }
      continue;
    }
    if (op.publication && (op.op == "load" || op.op == "store")) {
      const char* want = op.op == "store" ? "release" : "acquire";
      bool ok = !op.orders.empty();
      for (const std::string& o : op.orders) {
        if (o != want) ok = false;
      }
      if (!ok && reported.insert(op.offset).second) {
        out->push_back(
            {f.path, f.LineAt(op.offset), kRuleMemoryOrder,
             "atomic " + op.op + " with " + got +
                 " on a snapshot publication slot — the sanctioned idiom "
                 "pairs a release-store (std::memory_order_release) with an "
                 "acquire-load (std::memory_order_acquire)"});
      }
      continue;
    }
    if (op.orders.empty() && covered(hot_spans, op.offset) &&
        reported.insert(op.offset).second) {
      out->push_back(
          {f.path, f.LineAt(op.offset), kRuleMemoryOrder,
           "atomic " + op.op +
               " with a defaulted (seq_cst) order on a hot path — name the "
               "memory order explicitly; a seq_cst op costs a full fence "
               "per call (defaulted orders are fine off hot paths)"});
    }
  }
}

// --- R13: snapshot-escape (flow-sensitive deepening of R9) -------------------

struct DispatchSpan {
  std::size_t open = 0;
  std::size_t close = 0;
  bool async = false;  // Submit outlives the call; ShardedRange/ParallelFor
                       // join before returning
};

std::vector<DispatchSpan> NamedDispatchSpans(const std::string& code) {
  std::vector<DispatchSpan> spans;
  for (const char* dispatch : {"ShardedRange", "ParallelFor", "Submit"}) {
    std::size_t pos = 0;
    while ((pos = FindToken(code, pos, dispatch)) != kNpos) {
      const std::size_t open =
          SkipWs(code, pos + std::char_traits<char>::length(dispatch));
      ++pos;
      if (open >= code.size() || code[open] != '(') continue;
      const std::size_t close = MatchForward(code, open);
      if (close != kNpos) {
        spans.push_back({open, close, std::string(dispatch) == "Submit"});
      }
    }
  }
  return spans;
}

/// R13: follows acquired-snapshot values through locals, returns,
/// reference captures and container inserts via a per-function forward
/// dataflow, so a raw pointer escaping through an intermediate variable is
/// still caught. Facts: S:var (shared_ptr from Acquire/CurrentSnapshot),
/// R:var (raw pointer derived from one), C:var (lambda carrying a raw).
/// Direct `.get()` misuse (temporaries, member stores, `.get()` inside a
/// dispatch span) stays R9's territory — R13 only reports the flows R9
/// cannot see, so the two never double-report.
void CheckSnapshotEscape(const LexedFile& f, const FileSymbols& syms,
                         const std::vector<Cfg>& cfgs,
                         std::vector<Finding>* out) {
  if (!StartsWith(f.path, "src/")) return;
  const std::string& code = f.code;
  if (code.find("Acquire") == kNpos &&
      code.find("CurrentSnapshot") == kNpos) {
    return;
  }
  const auto dispatch_spans = NamedDispatchSpans(code);
  // Lambda-variable symbols nest inside their enclosing function's span;
  // dedupe findings by code offset so the overlap cannot double-report.
  std::set<std::size_t> reported;

  auto trim = [&code](std::size_t b, std::size_t e) {
    while (b < e && IsSpace(code[b])) ++b;
    while (e > b && (IsSpace(code[e - 1]) || code[e - 1] == ';')) --e;
    return std::make_pair(b, e);
  };
  auto ident_at = [&](std::size_t b, std::size_t e) -> std::string {
    const auto [tb, te] = trim(b, e);
    if (tb >= te) return {};
    for (std::size_t i = tb; i < te; ++i) {
      if (!IsIdentChar(code[i])) return {};
    }
    return code.substr(tb, te - tb);
  };
  // `V.get()` as the whole expression -> V; "" otherwise.
  auto get_receiver = [&](std::size_t b, std::size_t e) -> std::string {
    const auto [tb, te] = trim(b, e);
    std::size_t i = tb;
    const std::size_t nb = i;
    while (i < te && IsIdentChar(code[i])) ++i;
    if (i == nb) return {};
    const std::string var = code.substr(nb, i - nb);
    i = SkipWs(code, i);
    if (i >= te || code[i] != '.') return {};
    i = SkipWs(code, i + 1);
    if (!TokenAt(code, i, "get")) return {};
    i = SkipWs(code, i + 3);
    if (i >= te || code[i] != '(') return {};
    const std::size_t close = MatchForward(code, i);
    if (close == kNpos || SkipWs(code, close + 1) < te) return {};
    return var;
  };
  auto is_acquire_expr = [&](std::size_t b, std::size_t e) {
    for (const char* acc : {"Acquire", "CurrentSnapshot"}) {
      std::size_t p = b;
      while ((p = FindToken(code, p, acc)) != kNpos && p < e) {
        const std::size_t open =
            SkipWs(code, p + std::char_traits<char>::length(acc));
        if (open < e && code[open] == '(') return true;
        ++p;
      }
    }
    return false;
  };
  auto assign_eq = [&](std::size_t b, std::size_t e) -> std::size_t {
    int depth = 0;
    for (std::size_t i = b; i < e; ++i) {
      const char c = code[i];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') --depth;
      if (c != '=' || depth != 0) continue;
      const char prev = i > b ? code[i - 1] : ' ';
      const char next = i + 1 < e ? code[i + 1] : ' ';
      if (next == '=') {
        ++i;
        continue;
      }
      if (prev == '=' || prev == '!' || prev == '<' || prev == '>' ||
          prev == '+' || prev == '-' || prev == '*' || prev == '/' ||
          prev == '%' || prev == '&' || prev == '|' || prev == '^') {
        continue;
      }
      return i;
    }
    return kNpos;
  };

  for (std::size_t si = 0; si < syms.symbols.size(); ++si) {
    const Symbol& sym = syms.symbols[si];
    if (sym.body_end <= sym.body_begin || si >= cfgs.size()) continue;
    bool has_acc = false;
    for (const char* acc : {"Acquire", "CurrentSnapshot"}) {
      const std::size_t p = FindToken(code, sym.body_begin, acc);
      if (p != kNpos && p < sym.body_end) {
        has_acc = true;
        break;
      }
    }
    if (!has_acc) continue;
    const Cfg& cfg = cfgs[si];

    std::map<std::string, int> fact_ids;
    std::vector<std::string> fact_names;
    auto fact = [&](char kind, const std::string& var) {
      std::string key(1, kind);
      key += ':';
      key += var;
      const auto it = fact_ids.find(key);
      if (it != fact_ids.end()) return it->second;
      const int id = static_cast<int>(fact_names.size());
      fact_ids.emplace(key, id);
      fact_names.push_back(std::move(key));
      return id;
    };
    auto has = [&](const std::set<int>& facts, char kind,
                   const std::string& var) {
      const auto it = fact_ids.find(std::string(1, kind) + ":" + var);
      return it != fact_ids.end() && facts.count(it->second) != 0;
    };
    auto report = [&](std::size_t at, const std::string& msg) {
      if (reported.insert(at).second) {
        out->push_back({f.path, f.LineAt(at), kRuleSnapshotEscape, msg});
      }
    };

    auto transfer_stmt = [&](std::set<int> facts, const CfgStmt& st,
                             bool reporting) {
      const std::size_t sb = st.begin, se = st.end;
      if (reporting) {
        // Return escape: handing the raw pointer (directly or via .get())
        // to the caller outlives the acquire scope. Returning the
        // shared_ptr itself is the sanctioned idiom.
        const std::size_t rp = FindToken(code, sb, "return");
        if (rp != kNpos && rp < se) {
          const std::string rid = ident_at(rp + 6, se);
          const std::string getter = get_receiver(rp + 6, se);
          if (!rid.empty() && has(facts, 'R', rid)) {
            report(rp, "raw snapshot pointer '" + rid +
                           "' returned to the caller — it dangles once the "
                           "shared_ptr in this scope drops; return the "
                           "shared_ptr<const ModelSnapshot>");
          } else if (!getter.empty() && has(facts, 'S', getter)) {
            report(rp, "returning " + getter +
                           ".get() — the raw pointer outlives the acquire "
                           "scope; return the shared_ptr<const "
                           "ModelSnapshot>");
          }
        }
        // Container-insert escape into a member (or out-param) container.
        for (const char* m :
             {"push_back", "emplace_back", "insert", "emplace"}) {
          std::size_t p = sb;
          while ((p = FindToken(code, p, m)) != kNpos && p < se) {
            const std::size_t at = p;
            ++p;
            const std::size_t open =
                SkipWs(code, at + std::char_traits<char>::length(m));
            if (open >= code.size() || code[open] != '(') continue;
            std::size_t j = PrevNonWs(code, at);
            if (j == kNpos) continue;
            bool arrow = false;
            if (code[j] == '.') {
              j = PrevNonWs(code, j);
            } else if (j >= 1 && code[j] == '>' && code[j - 1] == '-') {
              arrow = true;
              j = PrevNonWs(code, j - 1);
            } else {
              continue;
            }
            if (j == kNpos || !IsIdentChar(code[j])) continue;
            if (!arrow && code[j] != '_') continue;  // local container: fine
            std::vector<std::pair<std::size_t, std::size_t>> args;
            if (!SplitCallArgs(code, open, &args)) continue;
            for (const auto& [ab, ae] : args) {
              const std::string aid = ident_at(ab, ae);
              const std::string getter = get_receiver(ab, ae);
              if ((!aid.empty() && has(facts, 'R', aid)) ||
                  (!getter.empty() && has(facts, 'S', getter))) {
                report(at,
                       "raw snapshot pointer stored into a long-lived "
                       "container — it dangles after the next publish "
                       "retires the snapshot; store the shared_ptr<const "
                       "ModelSnapshot> or re-Acquire() per request");
              }
            }
          }
        }
        // Dispatch-boundary escape for flows R9 cannot see: a raw/carrier
        // local crossing the pool boundary, or a shared_ptr captured by
        // reference into an async Submit task.
        for (const DispatchSpan& d : dispatch_spans) {
          if (d.open < sb || d.close >= se) continue;
          for (const int id : facts) {
            const char kind = fact_names[static_cast<std::size_t>(id)][0];
            const std::string var =
                fact_names[static_cast<std::size_t>(id)].substr(2);
            const std::size_t vp = FindToken(code, d.open, var.c_str());
            if (vp == kNpos || vp >= d.close) continue;
            if (kind == 'R' || kind == 'C') {
              report(vp, "raw snapshot pointer '" + var +
                             "' crosses a pool-dispatch boundary — capture "
                             "the shared_ptr<const ModelSnapshot> by value "
                             "so the snapshot outlives the task");
            } else if (d.async) {
              const std::size_t before = PrevNonWs(code, vp);
              const std::size_t amp = code.find("[&", d.open);
              const bool ref_default =
                  amp != kNpos && amp < d.close && amp < vp &&
                  (code[amp + 2] == ']' || code[amp + 2] == ',');
              if ((before != kNpos && code[before] == '&') || ref_default) {
                report(vp, "snapshot shared_ptr '" + var +
                               "' captured by reference into an async "
                               "Submit task — capture by value so the task "
                               "keeps the snapshot alive");
              }
            }
          }
        }
      }
      // Assignment transfer: strong update on the assigned local.
      const std::size_t eq = assign_eq(sb, se);
      if (eq == kNpos) return facts;
      std::size_t j = eq;
      while (j > sb && IsSpace(code[j - 1])) --j;
      if (j == sb || !IsIdentChar(code[j - 1])) return facts;
      const std::size_t ne = j;
      std::size_t nb = ne;
      while (nb > sb && IsIdentChar(code[nb - 1])) --nb;
      const std::string lhs = code.substr(nb, ne - nb);
      const std::size_t st_tok = FindToken(code, sb, "static");
      const bool is_static = st_tok != kNpos && st_tok < eq;
      const bool is_member = !lhs.empty() && lhs.back() == '_';
      const bool plain = !is_member && !is_static;

      const auto [rb, re] = trim(eq + 1, se);
      const std::string rid = ident_at(rb, re);
      const std::string getter = get_receiver(rb, re);
      char gen = 0;
      if (!rid.empty()) {
        if (has(facts, 'R', rid)) {
          if (plain) {
            gen = 'R';
          } else if (reporting) {
            report(nb, "raw snapshot pointer '" + rid +
                           "' escapes into a " +
                           (is_static ? "static" : "member") +
                           " through an intermediate local — it dangles "
                           "after the next publish; store the "
                           "shared_ptr<const ModelSnapshot> instead");
          }
        } else if (has(facts, 'S', rid)) {
          if (plain) gen = 'S';  // member shared_ptr pin: sanctioned (R9)
        } else if (has(facts, 'C', rid)) {
          if (plain) gen = 'C';
        }
      } else if (!getter.empty()) {
        // Member/static stores of V.get() are R9 findings already.
        if (plain && has(facts, 'S', getter)) gen = 'R';
      } else if (is_acquire_expr(rb, re)) {
        if (plain && FindToken(code, rb, "get") >= re) gen = 'S';
      } else if (rb < re && code[rb] == '[') {
        // Lambda literal: a carrier when it captures a live raw pointer or
        // derives one in an init-capture.
        const std::size_t cap_close = MatchForward(code, rb);
        if (cap_close != kNpos && cap_close < re) {
          bool carrier = false;
          for (const int id : facts) {
            const std::string& key = fact_names[static_cast<std::size_t>(id)];
            if (key[0] != 'R') continue;
            const std::size_t vp =
                FindToken(code, rb, key.substr(2).c_str());
            if (vp != kNpos && vp < cap_close) carrier = true;
          }
          const std::string ig = get_receiver(
              code.find('=', rb) == kNpos ? cap_close
                                          : code.find('=', rb) + 1,
              cap_close);
          if (!ig.empty() && has(facts, 'S', ig)) carrier = true;
          if (carrier && plain) gen = 'C';
        }
      }
      if (plain) {
        for (const char k : {'S', 'R', 'C'}) {
          const auto it = fact_ids.find(std::string(1, k) + ":" + lhs);
          if (it != fact_ids.end()) facts.erase(it->second);
        }
      }
      if (gen != 0) facts.insert(fact(gen, lhs));
      return facts;
    };

    const auto ins = ForwardDataflow(
        cfg, [&](int b, const std::set<int>& in) {
          std::set<int> facts = in;
          for (const CfgStmt& st :
               cfg.blocks[static_cast<std::size_t>(b)].stmts) {
            facts = transfer_stmt(std::move(facts), st, false);
          }
          return facts;
        });
    for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
      std::set<int> facts = ins[b];
      for (const CfgStmt& st : cfg.blocks[b].stmts) {
        facts = transfer_stmt(std::move(facts), st, true);
      }
    }
  }
}

// --- R5: header hygiene ----------------------------------------------------

using IncludeGraph = std::map<std::string, std::vector<const Include*>>;

/// Resolves `inc` as the build would: against the includer's directory,
/// then against src/ (the one include root the build adds).
std::string ResolveInclude(const std::string& includer,
                           const std::string& inc,
                           const std::set<std::string>& known) {
  for (const std::string& candidate :
       {JoinNormalize(DirName(includer), inc), JoinNormalize("src", inc),
        JoinNormalize("", inc)}) {
    if (known.count(candidate) > 0) return candidate;
  }
  return std::string();
}

void CheckIncludeCycles(const std::vector<LexedFile>& lexed,
                        std::vector<Finding>* out) {
  std::set<std::string> known;
  std::map<std::string, const LexedFile*> by_path;
  for (const LexedFile& f : lexed) {
    known.insert(f.path);
    by_path[f.path] = &f;
  }
  enum class Color { kWhite, kGray, kBlack };
  std::map<std::string, Color> color;
  std::vector<std::string> stack;
  std::set<std::string> seen_cycles;

  std::function<void(const std::string&)> dfs =
      [&](const std::string& node) {
        color[node] = Color::kGray;
        stack.push_back(node);
        for (const Include& inc : by_path.at(node)->includes) {
          const std::string target =
              ResolveInclude(node, inc.path, known);
          if (target.empty()) continue;
          const Color c = color.count(target) > 0 ? color[target]
                                                  : Color::kWhite;
          if (c == Color::kGray) {
            auto it = std::find(stack.begin(), stack.end(), target);
            std::vector<std::string> cycle(it, stack.end());
            auto min_it = std::min_element(cycle.begin(), cycle.end());
            std::rotate(cycle.begin(), min_it, cycle.end());
            std::string key;
            for (const auto& p : cycle) key += p + " -> ";
            if (seen_cycles.insert(key).second) {
              out->push_back({node, inc.line, kRuleIncludeCycle,
                              "include cycle: " + key + cycle.front()});
            }
          } else if (c == Color::kWhite) {
            dfs(target);
          }
        }
        stack.pop_back();
        color[node] = Color::kBlack;
      };
  for (const LexedFile& f : lexed) {
    if (color.count(f.path) == 0) dfs(f.path);
  }
}

/// Runs `cmd` via the shell, captures combined stdout+stderr, returns the
/// exit status (-1 when the shell could not be spawned).
int RunCommand(const std::string& cmd, std::string* output) {
  output->clear();
  FILE* pipe = popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return -1;
  char buf[4096];
  std::size_t got = 0;
  while ((got = fread(buf, 1, sizeof(buf), pipe)) > 0) {
    output->append(buf, got);
  }
  return pclose(pipe);
}

std::string ShellQuote(const std::string& s) {
  std::string out = "'";
  for (const char c : s) {
    if (c == '\'') {
      out += "'\\''";
    } else {
      out += c;
    }
  }
  out += "'";
  return out;
}

std::string FirstErrorLine(const std::string& output) {
  std::istringstream in(output);
  std::string line, first;
  while (std::getline(in, line)) {
    if (first.empty() && !line.empty()) first = line;
    if (line.find("error") != kNpos) return line;
  }
  return first.empty() ? "compiler failed with no output" : first;
}

void CheckHeaderSelfContained(const std::vector<LexedFile>& lexed,
                              const LintConfig& config,
                              std::vector<Finding>* out) {
  std::set<std::string> known;
  std::map<std::string, const LexedFile*> by_path;
  for (const LexedFile& f : lexed) {
    known.insert(f.path);
    by_path[f.path] = &f;
  }
  std::string flags_joined;
  for (const auto& flag : config.compile_flags) flags_joined += flag + "\n";

  // Hash of a header's transitive repo-include closure + compile flags:
  // unchanged hash => the previous stand-alone compile result still holds.
  auto closure_hash = [&](const std::string& header) {
    std::set<std::string> closure;
    std::vector<std::string> queue{header};
    while (!queue.empty()) {
      const std::string cur = queue.back();
      queue.pop_back();
      if (!closure.insert(cur).second) continue;
      for (const Include& inc : by_path.at(cur)->includes) {
        const std::string target = ResolveInclude(cur, inc.path, known);
        if (!target.empty() && closure.count(target) == 0) {
          queue.push_back(target);
        }
      }
    }
    uint64_t h = Fnv1a(flags_joined, 1469598103934665603ULL);
    for (const std::string& p : closure) {
      h = Fnv1a(p, h);
      h = Fnv1a(by_path.at(p)->content, h);
    }
    return h;
  };

  std::map<std::string, uint64_t> cache;
  if (!config.cache_path.empty()) {
    std::ifstream in(config.cache_path);
    std::string hex, path;
    while (in >> hex >> path) {
      cache[path] = std::strtoull(hex.c_str(), nullptr, 16);
    }
  }

  std::vector<std::pair<std::string, uint64_t>> to_check;
  std::map<std::string, uint64_t> verified;
  for (const LexedFile& f : lexed) {
    if (!StartsWith(f.path, "src/") || !EndsWith(f.path, ".h")) continue;
    const uint64_t h = closure_hash(f.path);
    auto it = cache.find(f.path);
    if (it != cache.end() && it->second == h) {
      verified[f.path] = h;  // cache hit — carry forward
    } else {
      to_check.emplace_back(f.path, h);
    }
  }

  auto compile = [&](const std::vector<std::string>& paths,
                     std::string* output) {
    std::string cmd = ShellQuote(config.compiler);
    for (const auto& flag : config.compile_flags) {
      cmd += " " + ShellQuote(flag);
    }
    cmd += " -fsyntax-only -x c++";
    for (const auto& p : paths) {
      cmd += " " + ShellQuote(config.root + "/" + p);
    }
    return RunCommand(cmd, output);
  };

  if (!to_check.empty()) {
    // Cold path: partition the stale headers into one batch per worker and
    // compile the batches concurrently (one compiler invocation each). A
    // failing batch is re-checked header by header inside its own worker
    // to attribute the error, so a single broken header only serializes
    // its batch, not the whole cold start. Results merge in batch order —
    // deterministic regardless of thread scheduling.
    const int want = config.compile_jobs > 0
                         ? config.compile_jobs
                         : static_cast<int>(
                               std::thread::hardware_concurrency());
    const int jobs = std::max(
        1, std::min(std::max(want, 1),
                    static_cast<int>(to_check.size())));
    std::vector<std::vector<std::pair<std::string, uint64_t>>> batches(
        static_cast<std::size_t>(jobs));
    for (std::size_t i = 0; i < to_check.size(); ++i) {
      batches[i % static_cast<std::size_t>(jobs)].push_back(to_check[i]);
    }
    struct BatchResult {
      std::vector<std::pair<std::string, uint64_t>> ok;
      std::vector<Finding> failed;
    };
    std::vector<BatchResult> results(static_cast<std::size_t>(jobs));
    auto run_batch = [&](std::size_t b) {
      const auto& batch = batches[b];
      std::vector<std::string> paths;
      for (const auto& [p, h] : batch) paths.push_back(p);
      std::string output;
      if (compile(paths, &output) == 0) {
        results[b].ok = batch;
        return;
      }
      for (const auto& [p, h] : batch) {
        if (compile({p}, &output) == 0) {
          results[b].ok.emplace_back(p, h);
        } else {
          results[b].failed.push_back({p, 1, kRuleHeaderSelf,
                                       "header is not self-contained: " +
                                           FirstErrorLine(output)});
        }
      }
    };
    std::vector<std::thread> workers;
    for (std::size_t b = 1; b < static_cast<std::size_t>(jobs); ++b) {
      workers.emplace_back(run_batch, b);
    }
    run_batch(0);
    for (std::thread& w : workers) w.join();
    for (const BatchResult& r : results) {
      for (const auto& [p, h] : r.ok) verified[p] = h;
      for (const Finding& f : r.failed) out->push_back(f);
    }
  }

  if (!config.cache_path.empty()) {
    std::ofstream cache_out(config.cache_path, std::ios::trunc);
    for (const auto& [p, h] : verified) {
      char hex[24];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(h));
      cache_out << hex << " " << p << "\n";
    }
  }
}

// --- R6: tests <-> CMake registration --------------------------------------

void CheckTestRegistration(const std::vector<FileEntry>& files,
                           std::vector<Finding>* out) {
  const FileEntry* cmake = nullptr;
  std::vector<const FileEntry*> test_files;
  for (const FileEntry& f : files) {
    if (f.path == "tests/CMakeLists.txt") cmake = &f;
    if (StartsWith(f.path, "tests/") && EndsWith(f.path, "_test.cc")) {
      test_files.push_back(&f);
    }
  }
  if (cmake == nullptr && test_files.empty()) return;

  // Parse actor_test(<name> ...) registrations, comment-aware.
  std::map<std::string, int> registered;  // name -> line
  if (cmake != nullptr) {
    std::istringstream in(cmake->content);
    std::string raw;
    int line_no = 0;
    std::string stripped;
    std::vector<std::size_t> line_starts;
    while (std::getline(in, raw)) {
      ++line_no;
      const std::size_t hash = raw.find('#');
      line_starts.push_back(stripped.size());
      stripped += raw.substr(0, hash == kNpos ? raw.size() : hash);
      stripped += '\n';
    }
    std::size_t pos = 0;
    while ((pos = FindToken(stripped, pos, "actor_test")) != kNpos) {
      const std::size_t at = pos;
      pos += 10;
      std::size_t j = SkipWs(stripped, at + 10);
      if (j >= stripped.size() || stripped[j] != '(') continue;
      j = SkipWs(stripped, j + 1);
      std::string name;
      while (j < stripped.size() && !IsSpace(stripped[j]) &&
             stripped[j] != ')') {
        name += stripped[j++];
      }
      if (name.empty()) continue;
      const int line = static_cast<int>(
          std::upper_bound(line_starts.begin(), line_starts.end(), at) -
          line_starts.begin());
      registered.emplace(name, line);
    }
  }

  std::set<std::string> source_names;
  for (const FileEntry* f : test_files) {
    const std::string name =
        f->path.substr(6, f->path.size() - 6 - 3);  // strip tests/ and .cc
    source_names.insert(name);
    if (registered.count(name) == 0) {
      out->push_back({f->path, 1, kRuleTestReg,
                      "test binary is not registered with actor_test() in "
                      "tests/CMakeLists.txt — it would never run in CI"});
    }
  }
  for (const auto& [name, line] : registered) {
    if (source_names.count(name) == 0) {
      out->push_back({"tests/CMakeLists.txt", line, kRuleTestReg,
                      "actor_test(" + name + ") is registered but tests/" +
                          name + ".cc does not exist"});
    }
  }
}

// --- Suppressions ----------------------------------------------------------

struct Suppression {
  std::string file;
  int target_line = 0;
  int comment_line = 0;
  std::string entry;  // "actor-<rule>" or "actor-*"
  bool used = false;
  int lexed_file = -1;            // index into the lexed set (fix synthesis)
  std::size_t comment_begin = 0;  // offset of the // or /* in content
};

void CollectSuppressions(const LexedFile& f, int lexed_file,
                         std::vector<Suppression>* out) {
  for (const Comment& c : f.comments) {
    std::size_t pos = c.text.find("NOLINT");
    if (pos == kNpos) continue;
    std::size_t j = pos + 6;
    bool next_line = false;
    if (c.text.compare(j, 8, "NEXTLINE") == 0) {
      next_line = true;
      j += 8;
    }
    if (j >= c.text.size() || c.text[j] != '(') continue;
    const std::size_t close = c.text.find(')', j);
    if (close == kNpos) continue;
    std::string list = c.text.substr(j + 1, close - j - 1);
    std::size_t b = 0;
    while (b <= list.size()) {
      const std::size_t e = std::min(list.find(',', b), list.size());
      std::string entry = list.substr(b, e - b);
      const std::size_t lead = entry.find_first_not_of(" \t");
      const std::size_t trail = entry.find_last_not_of(" \t");
      entry = lead == kNpos
                  ? std::string()
                  : entry.substr(lead, trail - lead + 1);
      if (StartsWith(entry, "actor-")) {
        out->push_back({f.path, next_line ? c.line + 1 : c.line, c.line,
                        entry, false, lexed_file, c.begin});
      }
      b = e + 1;
    }
  }
}

// --- mechanical fixes (actor_lint --fix) -----------------------------------

struct Fix {
  bool ok = false;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::string text;
};

/// Extent of the comment starting at `comment_begin` in `content`
/// (one past `*/` for block comments, up to the newline for line
/// comments). npos on malformed input.
std::size_t CommentEnd(const std::string& content,
                       std::size_t comment_begin) {
  if (comment_begin + 1 >= content.size()) return kNpos;
  if (content[comment_begin + 1] == '*') {
    const std::size_t close = content.find("*/", comment_begin + 2);
    return close == kNpos ? kNpos : close + 2;
  }
  const std::size_t nl = content.find('\n', comment_begin);
  return nl == kNpos ? content.size() : nl;
}

/// Deletes a whole comment; when the comment sits alone on its line the
/// deletion swallows the line, otherwise just the comment and the spaces
/// before it (a trailing comment).
Fix DeleteCommentFix(const std::string& content, std::size_t comment_begin) {
  const std::size_t end = CommentEnd(content, comment_begin);
  if (end == kNpos) return {};
  std::size_t db = comment_begin, de = end;
  std::size_t ls = comment_begin == 0
                       ? kNpos
                       : content.rfind('\n', comment_begin - 1);
  ls = ls == kNpos ? 0 : ls + 1;
  bool lone = true;
  for (std::size_t i = ls; i < comment_begin; ++i) {
    if (content[i] != ' ' && content[i] != '\t') lone = false;
  }
  std::size_t le = content.find('\n', de);
  le = le == kNpos ? content.size() : le + 1;
  bool line_tail_blank = true;
  for (std::size_t i = de; i + 1 < le; ++i) {
    if (content[i] != ' ' && content[i] != '\t') line_tail_blank = false;
  }
  if (lone && line_tail_blank) {
    db = ls;
    de = le;
  } else {
    while (db > ls &&
           (content[db - 1] == ' ' || content[db - 1] == '\t')) {
      --db;
    }
  }
  return {true, db, de, ""};
}

/// Rebuilds the NOLINT list at `comment_begin` without its stale entries:
/// a pure-deletion fix when nothing survives, a list-rewrite otherwise
/// (non-actor entries like `readability-*` always survive).
Fix MakeNolintFix(const std::string& content, std::size_t comment_begin,
                  const std::set<std::string>& stale) {
  const std::size_t end = CommentEnd(content, comment_begin);
  if (end == kNpos) return {};
  const std::size_t np = content.find("NOLINT", comment_begin);
  if (np == kNpos || np >= end) return {};
  std::size_t j = np + 6;
  if (content.compare(j, 8, "NEXTLINE") == 0) j += 8;
  if (j >= end || content[j] != '(') return {};
  const std::size_t close = content.find(')', j);
  if (close == kNpos || close > end) return {};
  std::vector<std::string> survive;
  std::size_t b = j + 1;
  while (b <= close) {
    const std::size_t e = std::min(content.find(',', b), close);
    std::string entry = content.substr(b, e - b);
    const std::size_t lead = entry.find_first_not_of(" \t");
    const std::size_t trail = entry.find_last_not_of(" \t");
    entry = lead == kNpos ? std::string()
                          : entry.substr(lead, trail - lead + 1);
    if (!entry.empty() && stale.count(entry) == 0) survive.push_back(entry);
    b = e + 1;
  }
  if (survive.empty()) return DeleteCommentFix(content, comment_begin);
  std::string text;
  for (const std::string& s : survive) {
    if (!text.empty()) text += ", ";
    text += s;
  }
  return {true, j + 1, close, text};
}

// --- symbol cache (also the --changed-only baseline) -----------------------

struct SymbolCacheEntry {
  uint64_t hash = 0;
  bool clean = false;  // the previous run left zero findings in this file
  FileSymbols syms;
};

/// The `V <stamp>` cache header. An empty stamp (in-process test configs)
/// normalizes to "-"; a cache written under any other stamp — an older
/// rule set or a different analyzer binary — is discarded wholesale, so
/// --changed-only can never mask findings a newer analyzer would add.
std::string StampLine(const std::string& stamp) {
  return "V " + (stamp.empty() ? "-" : stamp) + "\n";
}

/// Consumes the `V <stamp>` header at `*pos`. False on mismatch.
bool ConsumeStamp(const std::string& content, std::size_t* pos,
                  const std::string& stamp) {
  const std::string want = StampLine(stamp);
  if (content.compare(*pos, want.size(), want) != 0) return false;
  *pos += want.size();
  return true;
}

std::map<std::string, SymbolCacheEntry> LoadSymbolCache(
    const std::string& path, const std::string& stamp) {
  std::map<std::string, SymbolCacheEntry> cache;
  if (path.empty()) return cache;
  std::ifstream in(path, std::ios::binary);
  if (!in) return cache;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();
  std::size_t pos = 0;
  if (!ConsumeStamp(content, &pos, stamp)) return cache;
  while (pos < content.size()) {
    const std::size_t nl = std::min(content.find('\n', pos), content.size());
    const std::string header = content.substr(pos, nl - pos);
    pos = nl == content.size() ? nl : nl + 1;
    std::istringstream hs(header);
    std::string tag, hex, file_path;
    int clean = 0;
    if (!(hs >> tag >> hex >> clean >> file_path) || tag != "F") {
      return {};  // malformed — treat the whole cache as a miss
    }
    SymbolCacheEntry entry;
    entry.hash = std::strtoull(hex.c_str(), nullptr, 16);
    entry.clean = clean != 0;
    if (!ParseSymbols(content, &pos, &entry.syms)) return {};
    cache.emplace(std::move(file_path), std::move(entry));
  }
  return cache;
}

void SaveSymbolCache(const std::string& path, const std::string& stamp,
                     const std::vector<LexedFile>& lexed,
                     const std::vector<FileSymbols>& symbols,
                     const std::vector<uint64_t>& hashes,
                     const std::vector<char>& clean) {
  if (path.empty()) return;
  std::string out = StampLine(stamp);
  for (std::size_t i = 0; i < lexed.size(); ++i) {
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hashes[i]));
    out += std::string("F ") + hex + " " + (clean[i] ? "1" : "0") + " " +
           lexed[i].path + "\n";
    SerializeSymbols(symbols[i], &out);
  }
  std::ofstream f(path, std::ios::trunc | std::ios::binary);
  f << out;
}

// --- CFG cache (beside the symbol cache, same invalidation) ----------------

struct CfgCacheEntry {
  uint64_t hash = 0;
  std::vector<Cfg> cfgs;  // one per symbol, in symbol-index order
};

std::map<std::string, CfgCacheEntry> LoadCfgCache(const std::string& path,
                                                  const std::string& stamp) {
  std::map<std::string, CfgCacheEntry> cache;
  if (path.empty()) return cache;
  std::ifstream in(path, std::ios::binary);
  if (!in) return cache;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();
  std::size_t pos = 0;
  if (!ConsumeStamp(content, &pos, stamp)) return cache;
  while (pos < content.size()) {
    const std::size_t nl = std::min(content.find('\n', pos), content.size());
    const std::string header = content.substr(pos, nl - pos);
    pos = nl == content.size() ? nl : nl + 1;
    std::istringstream hs(header);
    std::string tag, hex, file_path;
    if (!(hs >> tag >> hex >> file_path) || tag != "F") return {};
    CfgCacheEntry entry;
    entry.hash = std::strtoull(hex.c_str(), nullptr, 16);
    if (!ParseCfgs(content, &pos, &entry.cfgs)) return {};
    cache.emplace(std::move(file_path), std::move(entry));
  }
  return cache;
}

void SaveCfgCache(const std::string& path, const std::string& stamp,
                  const std::vector<LexedFile>& lexed,
                  const std::vector<std::vector<Cfg>>& cfgs,
                  const std::vector<uint64_t>& hashes) {
  if (path.empty()) return;
  std::string out = StampLine(stamp);
  for (std::size_t i = 0; i < lexed.size(); ++i) {
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hashes[i]));
    out += std::string("F ") + hex + " " + lexed[i].path + "\n";
    SerializeCfgs(cfgs[i], &out);
  }
  std::ofstream f(path, std::ios::trunc | std::ios::binary);
  f << out;
}

/// Everything LintRepo derives from the symbol indexes in one pass, shared
/// with DumpCallGraph.
struct RepoAnalysis {
  std::vector<FileSymbols> symbols;
  std::vector<uint64_t> hashes;
  std::vector<char> changed;     // per lexed file: content hash differs
  std::vector<char> prev_clean;  // per lexed file: cached clean flag
  std::vector<Annotation> annotations;
  std::vector<SrcSpan> annotation_spans;
};

RepoAnalysis AnalyzeRepo(const std::vector<LexedFile>& lexed,
                         const std::map<std::string, SymbolCacheEntry>& cache) {
  RepoAnalysis a;
  a.symbols.resize(lexed.size());
  a.hashes.resize(lexed.size());
  a.changed.assign(lexed.size(), 1);
  a.prev_clean.assign(lexed.size(), 0);
  for (std::size_t i = 0; i < lexed.size(); ++i) {
    a.hashes[i] = Fnv1a(lexed[i].content, 1469598103934665603ULL);
    const auto it = cache.find(lexed[i].path);
    if (it != cache.end() && it->second.hash == a.hashes[i]) {
      a.symbols[i] = it->second.syms;
      a.changed[i] = 0;
      a.prev_clean[i] = it->second.clean ? 1 : 0;
    } else {
      a.symbols[i] = ExtractSymbols(lexed[i]);
    }
  }
  a.annotations = CollectAnnotations(lexed);
  for (const Annotation& an : a.annotations) {
    a.annotation_spans.push_back({an.file, an.begin, an.end});
  }
  return a;
}

}  // namespace

std::vector<Finding> LintRepo(const std::vector<FileEntry>& files,
                              const LintConfig& config) {
  std::vector<LexedFile> lexed;
  for (const FileEntry& f : files) {
    if (EndsWith(f.path, ".cc") || EndsWith(f.path, ".cpp") ||
        EndsWith(f.path, ".h")) {
      lexed.push_back(Lex(f.path, f.content));
    }
  }
  const std::size_t n = lexed.size();
  std::map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < n; ++i) index_of[lexed[i].path] = i;

  const auto cache =
      LoadSymbolCache(config.symbol_cache_path, config.cache_stamp);
  RepoAnalysis repo = AnalyzeRepo(lexed, cache);
  const CallGraph g = BuildCallGraph(lexed, repo.symbols);
  const HogwildInfo hw = ComputeHogwild(g, repo.annotation_spans);
  const HotPathInfo hot = ComputeHotPaths(g, hw, repo.annotation_spans);

  // Per-function CFGs for the flow-sensitive rules, cached beside the
  // symbol cache under the same content-hash + stamp invalidation.
  std::vector<std::vector<Cfg>> cfgs(n);
  {
    const auto cfg_cache =
        LoadCfgCache(config.cfg_cache_path, config.cache_stamp);
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = cfg_cache.find(lexed[i].path);
      if (it != cfg_cache.end() && it->second.hash == repo.hashes[i] &&
          it->second.cfgs.size() == repo.symbols[i].symbols.size()) {
        cfgs[i] = it->second.cfgs;
      } else {
        cfgs[i].reserve(repo.symbols[i].symbols.size());
        for (const Symbol& sym : repo.symbols[i].symbols) {
          cfgs[i].push_back(
              BuildCfg(lexed[i].code, sym.body_begin, sym.body_end));
        }
      }
    }
    SaveCfgCache(config.cfg_cache_path, config.cache_stamp, lexed, cfgs,
                 repo.hashes);
  }

  // Per-file HOGWILD regions for the R4 row/dirty-mark discipline:
  // annotation spans, auto-detected dispatch spans, and the bodies of every
  // symbol the call graph marks as HOGWILD-reachable.
  std::vector<std::vector<Region>> regions(n);
  for (const Annotation& a : repo.annotations) {
    regions[static_cast<std::size_t>(a.file)].push_back({a.begin, a.end});
  }
  for (const SrcSpan& s : hw.dispatch_spans) {
    regions[static_cast<std::size_t>(s.file)].push_back({s.begin, s.end});
  }
  for (int node = 0; node < static_cast<int>(g.nodes().size()); ++node) {
    if (!hw.hogwild[static_cast<std::size_t>(node)]) continue;
    const Symbol& sym = g.Sym(node);
    regions[static_cast<std::size_t>(g.FileIndex(node))].push_back(
        {sym.body_begin, sym.body_end});
  }
  for (auto& r : regions) {
    std::sort(r.begin(), r.end(), [](const Region& a, const Region& b) {
      return std::tie(a.begin, a.end) < std::tie(b.begin, b.end);
    });
    r.erase(std::unique(r.begin(), r.end(),
                        [](const Region& a, const Region& b) {
                          return a.begin == b.begin && a.end == b.end;
                        }),
            r.end());
  }

  // --changed-only active set: changed files, files the previous run left
  // findings in, their 1-hop call-graph neighbors, and every includer of a
  // changed file (its textual content changed too). Cross-file rules run
  // regardless — this mode must never hide a finding, only skip re-deriving
  // per-file findings for files known clean and untouched.
  std::vector<char> active(n, 1);
  if (config.changed_only) {
    active.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (repo.changed[i] || !repo.prev_clean[i]) active[i] = 1;
    }
    // 1-hop call edges, both directions.
    for (int node = 0; node < static_cast<int>(g.nodes().size()); ++node) {
      const std::size_t fi = static_cast<std::size_t>(g.FileIndex(node));
      for (const int callee : g.ResolveAll(g.Sym(node).calls)) {
        const std::size_t ci = static_cast<std::size_t>(g.FileIndex(callee));
        if (repo.changed[fi]) active[ci] = 1;
        if (repo.changed[ci]) active[fi] = 1;
      }
    }
    // Includers of changed files, transitively.
    std::set<std::string> known;
    for (const LexedFile& f : lexed) known.insert(f.path);
    std::vector<std::vector<std::size_t>> includers(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (const Include& inc : lexed[i].includes) {
        const std::string target = ResolveInclude(lexed[i].path, inc.path,
                                                  known);
        if (!target.empty()) includers[index_of[target]].push_back(i);
      }
    }
    std::vector<std::size_t> queue;
    std::vector<char> seen(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (repo.changed[i]) {
        queue.push_back(i);
        seen[i] = 1;
      }
    }
    while (!queue.empty()) {
      const std::size_t cur = queue.back();
      queue.pop_back();
      active[cur] = 1;
      for (const std::size_t up : includers[cur]) {
        if (!seen[up]) {
          seen[up] = 1;
          queue.push_back(up);
        }
      }
    }
  }

  std::vector<Finding> findings;

  // Redundant manual annotations: the interprocedural propagation (without
  // the annotation seeds) already covers the annotated scope.
  for (const Annotation& a : repo.annotations) {
    const std::size_t fi = static_cast<std::size_t>(a.file);
    if (!active[fi]) continue;
    bool covered = false;
    for (const SrcSpan& s : hw.dispatch_spans) {
      if (s.file == a.file && s.begin <= a.begin && a.end <= s.end) {
        covered = true;
        break;
      }
    }
    for (int node = 0; !covered && node < static_cast<int>(g.nodes().size());
         ++node) {
      if (!hw.hogwild_auto[static_cast<std::size_t>(node)]) continue;
      if (g.FileIndex(node) != a.file) continue;
      const Symbol& sym = g.Sym(node);
      if (sym.body_begin <= a.begin && a.end <= sym.body_end) covered = true;
    }
    if (covered) {
      Finding finding{
          lexed[fi].path, a.comment_line, kRuleHogwild,
          "redundant hogwild-region annotation — the call graph already "
          "derives this region from the ThreadPool dispatch; remove the "
          "comment"};
      const Fix fix = DeleteCommentFix(lexed[fi].content, a.comment_begin);
      if (fix.ok) {
        finding.has_fix = true;
        finding.fix_begin = fix.begin;
        finding.fix_end = fix.end;
        finding.fix_text = fix.text;
      }
      findings.push_back(std::move(finding));
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    const LexedFile& f = lexed[i];
    CheckThread(f, &findings);
    CheckRng(f, &findings);
    CheckSimdAligned(f, &findings);
    CheckHogwild(f, regions[i], &findings);
    CheckServeReadOnly(f, &findings);
    CheckSnapshotLifetime(f, &findings);
  }

  // R10: region/scoring boundaries may allocate scratch but not block;
  // everything reachable beneath them must not block or allocate. Roots
  // are scanned first so a nested checked body still reports allocations.
  {
    std::set<int> query_root_set(hot.query_roots.begin(),
                                 hot.query_roots.end());
    std::vector<std::set<std::size_t>> reported(n);
    for (const SrcSpan& s : hw.dispatch_spans) {
      const std::size_t fi = static_cast<std::size_t>(s.file);
      if (!active[fi]) continue;
      ScanHotSpan(lexed[fi], s.begin, s.end, /*allow_alloc=*/true,
                  "inside a HOGWILD dispatch region", &reported[fi],
                  &findings);
    }
    for (const Annotation& a : repo.annotations) {
      const std::size_t fi = static_cast<std::size_t>(a.file);
      if (!active[fi]) continue;
      ScanHotSpan(lexed[fi], a.begin, a.end, /*allow_alloc=*/true,
                  "inside an annotated HOGWILD region", &reported[fi],
                  &findings);
    }
    for (int node = 0; node < static_cast<int>(g.nodes().size()); ++node) {
      const std::size_t ni = static_cast<std::size_t>(node);
      const std::size_t fi = static_cast<std::size_t>(g.FileIndex(node));
      if (!active[fi]) continue;
      const Symbol& sym = g.Sym(node);
      if (hot.root[ni]) {
        const char* why = query_root_set.count(node) > 0
                              ? "in the QueryEngine scoring path"
                              : "in a dispatched HOGWILD shard body";
        ScanHotSpan(lexed[fi], sym.body_begin, sym.body_end,
                    /*allow_alloc=*/true, why, &reported[fi], &findings);
      } else if (hot.checked[ni]) {
        const bool hg = hot.from_hogwild[ni] != 0;
        const bool qy = hot.from_query[ni] != 0;
        const std::string reason =
            std::string("in `") + sym.name + "`, reachable from " +
            (hg && qy ? "a HOGWILD region and the QueryEngine scoring path"
             : hg    ? "a HOGWILD region"
                     : "the QueryEngine scoring path");
        ScanHotSpan(lexed[fi], sym.body_begin, sym.body_end,
                    /*allow_alloc=*/false, reason, &reported[fi], &findings);
      }
    }
  }

  // R11: the lock-order graph is global (a cycle can span files), so the
  // flow runs over every src/ function; per-site findings honor `active`.
  CheckLockOrder(g, cfgs, active, &findings);

  // R12/R13: per-file flow-sensitive rules over the same CFGs.
  {
    std::vector<std::vector<Region>> hot_spans(n);
    for (int node = 0; node < static_cast<int>(g.nodes().size()); ++node) {
      const std::size_t ni = static_cast<std::size_t>(node);
      if (!hot.root[ni] && !hot.checked[ni]) continue;
      const Symbol& sym = g.Sym(node);
      hot_spans[static_cast<std::size_t>(g.FileIndex(node))].push_back(
          {sym.body_begin, sym.body_end});
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      CheckMemoryOrder(lexed[i], regions[i], hot_spans[i], &findings);
      CheckSnapshotEscape(lexed[i], repo.symbols[i], cfgs[i], &findings);
    }
  }

  CheckIncludeCycles(lexed, &findings);
  if (config.compile_headers) {
    CheckHeaderSelfContained(lexed, config, &findings);
  }
  CheckTestRegistration(files, &findings);

  std::vector<Suppression> suppressions;
  for (std::size_t i = 0; i < n; ++i) {
    CollectSuppressions(lexed[i], static_cast<int>(i), &suppressions);
  }
  if (config.changed_only) {
    // Suppressions in skipped files cannot match the findings they exist
    // for — pre-mark them used so they do not read as stale.
    for (Suppression& s : suppressions) {
      const auto it = index_of.find(s.file);
      if (it != index_of.end() && !active[it->second]) s.used = true;
    }
  }
  std::vector<Finding> surviving;
  for (Finding& finding : findings) {
    bool suppressed = false;
    for (Suppression& s : suppressions) {
      if (s.file == finding.file && s.target_line == finding.line &&
          (s.entry == "actor-*" || s.entry == finding.rule)) {
        s.used = true;
        suppressed = true;
      }
    }
    if (!suppressed) surviving.push_back(std::move(finding));
  }
  // Stale suppressions become findings carrying mechanical fixes: one
  // combined list-rewrite per comment (attached to its first stale entry),
  // a whole-comment deletion when nothing would survive.
  std::map<std::pair<std::string, std::size_t>, std::set<std::string>>
      stale_entries;
  for (const Suppression& s : suppressions) {
    if (!s.used) stale_entries[{s.file, s.comment_begin}].insert(s.entry);
  }
  std::set<std::pair<std::string, std::size_t>> fix_emitted;
  for (const Suppression& s : suppressions) {
    if (s.used) continue;
    Finding finding{s.file, s.comment_line, kRuleStaleNolint,
                    "NOLINT(" + s.entry +
                        ") no longer suppresses anything — remove it so "
                        "silenced findings cannot rot"};
    if (s.lexed_file >= 0 &&
        fix_emitted.insert({s.file, s.comment_begin}).second) {
      const Fix fix = MakeNolintFix(
          lexed[static_cast<std::size_t>(s.lexed_file)].content,
          s.comment_begin, stale_entries.at({s.file, s.comment_begin}));
      if (fix.ok) {
        finding.has_fix = true;
        finding.fix_begin = fix.begin;
        finding.fix_end = fix.end;
        finding.fix_text = fix.text;
      }
    }
    surviving.push_back(std::move(finding));
  }

  std::sort(surviving.begin(), surviving.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });

  if (!config.symbol_cache_path.empty()) {
    // A file is clean when this run (or, for skipped files, the previous
    // run) left no finding in it.
    std::vector<char> clean(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      clean[i] = active[i] ? 1 : repo.prev_clean[i];
    }
    for (const Finding& f : surviving) {
      const auto it = index_of.find(f.file);
      if (it != index_of.end()) clean[it->second] = 0;
    }
    SaveSymbolCache(config.symbol_cache_path, config.cache_stamp, lexed,
                    repo.symbols, repo.hashes, clean);
  }
  return surviving;
}

std::string DumpCallGraph(const std::vector<FileEntry>& files) {
  std::vector<LexedFile> lexed;
  for (const FileEntry& f : files) {
    if (EndsWith(f.path, ".cc") || EndsWith(f.path, ".cpp") ||
        EndsWith(f.path, ".h")) {
      lexed.push_back(Lex(f.path, f.content));
    }
  }
  const RepoAnalysis repo = AnalyzeRepo(lexed, {});
  const CallGraph g = BuildCallGraph(lexed, repo.symbols);
  const HogwildInfo hw = ComputeHogwild(g, repo.annotation_spans);
  const HotPathInfo hot = ComputeHotPaths(g, hw, repo.annotation_spans);
  return DumpCallGraphDot(g, hw, hot);
}

std::string FormatFindingsText(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  return out;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string FormatFindingsJson(const std::vector<Finding>& findings) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out += "  {\"file\": \"" + JsonEscape(f.file) +
           "\", \"line\": " + std::to_string(f.line) + ", \"rule\": \"" +
           JsonEscape(f.rule) + "\", \"message\": \"" +
           JsonEscape(f.message) + "\"}";
    out += i + 1 < findings.size() ? ",\n" : "\n";
  }
  out += "]\n";
  return out;
}

std::string FormatFindingsSarif(const std::vector<Finding>& findings) {
  static const char* kAllRules[] = {
      kRuleThread,        kRuleRng,          kRuleSimdAligned,
      kRuleHogwild,       kRuleHeaderSelf,   kRuleIncludeCycle,
      kRuleTestReg,       kRuleStaleNolint,  kRuleServeReadOnly,
      kRuleSnapshotLifetime, kRuleHotPath,   kRuleLockOrder,
      kRuleMemoryOrder,   kRuleSnapshotEscape};
  std::string out =
      "{\n"
      "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [{\n"
      "    \"tool\": {\"driver\": {\"name\": \"actor-lint\", \"rules\": [";
  for (std::size_t i = 0; i < sizeof(kAllRules) / sizeof(kAllRules[0]);
       ++i) {
    if (i > 0) out += ", ";
    out += std::string("{\"id\": \"") + kAllRules[i] + "\"}";
  }
  out += "]}},\n    \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i > 0) out += ",";
    out += "\n      {\"ruleId\": \"" + JsonEscape(f.rule) +
           "\", \"level\": \"error\", \"message\": {\"text\": \"" +
           JsonEscape(f.message) +
           "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"" +
           JsonEscape(f.file) + "\"}, \"region\": {\"startLine\": " +
           std::to_string(std::max(1, f.line)) + "}}}]}";
  }
  out += "\n    ]\n  }]\n}\n";
  return out;
}

std::string ApplyFixes(const std::string& path, const std::string& content,
                       const std::vector<Finding>& findings) {
  std::vector<const Finding*> fixes;
  for (const Finding& f : findings) {
    if (f.has_fix && f.file == path && f.fix_begin <= f.fix_end &&
        f.fix_end <= content.size()) {
      fixes.push_back(&f);
    }
  }
  std::sort(fixes.begin(), fixes.end(),
            [](const Finding* a, const Finding* b) {
              return std::tie(a->fix_begin, a->fix_end) <
                     std::tie(b->fix_begin, b->fix_end);
            });
  std::string out;
  std::size_t pos = 0;
  for (const Finding* f : fixes) {
    if (f->fix_begin < pos) continue;  // overlapping spans: first wins
    out += content.substr(pos, f->fix_begin - pos);
    out += f->fix_text;
    pos = f->fix_end;
  }
  out += content.substr(pos);
  return out;
}

}  // namespace actor_lint
