#ifndef ACTOR_TOOLS_ACTOR_LINT_RULES_H_
#define ACTOR_TOOLS_ACTOR_LINT_RULES_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace actor_lint {

// Rule identifiers (the names accepted inside NOLINT(actor-...) lists).
// R1: parallelism must flow through util/thread_pool.
inline constexpr char kRuleThread[] = "actor-thread";
// R2: randomness/clocks must flow through util/rng.h / util/stopwatch.h.
inline constexpr char kRuleRng[] = "actor-rng";
// R3: SIMD kernels must never assume alignment.
inline constexpr char kRuleSimdAligned[] = "actor-simd-aligned";
// R4: HOGWILD regions touch shared rows only via the kernel API.
inline constexpr char kRuleHogwild[] = "actor-hogwild";
// R5a: every src/**/*.h compiles stand-alone.
inline constexpr char kRuleHeaderSelf[] = "actor-header-self";
// R5b: the project include graph is acyclic.
inline constexpr char kRuleIncludeCycle[] = "actor-include-cycle";
// R6: tests/*_test.cc <-> actor_test() registrations agree.
inline constexpr char kRuleTestReg[] = "actor-test-reg";
// R7: every NOLINT(actor-*) must still suppress something.
inline constexpr char kRuleStaleNolint[] = "actor-stale-nolint";
// R8: the serving read path (src/serve/, src/eval/) never mutates
// embedding matrices — snapshots are immutable after publish.
inline constexpr char kRuleServeReadOnly[] = "actor-serve-readonly";
// R9: SnapshotStore::Acquire()/CurrentSnapshot() results stay shared_ptr
// locals — no raw .get() pointers into members/statics or across a
// pool-dispatch boundary.
inline constexpr char kRuleSnapshotLifetime[] = "actor-snapshot-lifetime";
// R10: no mutexes, IO, or heap allocation in functions reachable from a
// HOGWILD region or the QueryEngine scoring path (call-graph derived).
inline constexpr char kRuleHotPath[] = "actor-hot-path-blocking";
// R11: lock acquisition order is globally consistent (no cycle in the
// lock-order graph, held-sets propagated across calls via per-function
// summaries) and no lock is held across a pool dispatch or
// SnapshotStore::Publish.
inline constexpr char kRuleLockOrder[] = "actor-lock-order";
// R12: atomics follow the cataloged memory-order idioms — relaxed-only
// inside HOGWILD regions, release-store/acquire-load pairing for snapshot
// publication (src/serve/), no defaulted seq_cst on R10 hot paths.
inline constexpr char kRuleMemoryOrder[] = "actor-memory-order";
// R13: flow-sensitive deepening of R9 — an acquired snapshot must not
// escape its acquire scope as a raw pointer, even through an intermediate
// local, a return, a lambda capture, or a container insert.
inline constexpr char kRuleSnapshotEscape[] = "actor-snapshot-escape";

/// Bumped whenever rule behavior changes. Stamped (together with the
/// analyzer binary hash) into the symbol/CFG caches so a cache written by
/// an older analyzer invalidates wholesale instead of silently masking
/// findings from newer rules under --changed-only.
inline constexpr int kRuleSetVersion = 4;

/// One analyzer finding. Formats as `file:line: [rule] message`. Findings
/// for mechanical problems (stale NOLINT entries, redundant hogwild-region
/// annotations) carry a fix: replace content[fix_begin, fix_end) with
/// fix_text (empty = pure deletion). Applied by `actor_lint --fix`.
struct Finding {
  Finding() = default;
  Finding(std::string file_, int line_, std::string rule_,
          std::string message_)
      : file(std::move(file_)),
        line(line_),
        rule(std::move(rule_)),
        message(std::move(message_)) {}

  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
  bool has_fix = false;
  std::size_t fix_begin = 0;
  std::size_t fix_end = 0;
  std::string fix_text;
};

/// One input file, path repo-relative with forward slashes.
struct FileEntry {
  std::string path;
  std::string content;
};

struct LintConfig {
  /// Repo root on disk; only used by the header self-containedness
  /// compile check (paths in FileEntry are resolved against it).
  std::string root = ".";
  /// Run the R5 stand-alone compile check (shells out to `compiler`).
  bool compile_headers = false;
  std::string compiler = "c++";
  /// Include/define/standard flags for the compile check, normally lifted
  /// from build/compile_commands.json.
  std::vector<std::string> compile_flags;
  /// Optional on-disk cache for header compile results, keyed on the hash
  /// of the header's include closure + flags ("" disables caching).
  std::string cache_path;
  /// Optional on-disk per-file symbol-index cache (also the baseline for
  /// --changed-only). "" disables it.
  std::string symbol_cache_path;
  /// Optional on-disk per-file CFG cache, invalidated by the same
  /// content-hash diff as the symbol cache. "" disables it.
  std::string cfg_cache_path;
  /// Version stamp written into (and required of) the symbol/CFG caches:
  /// main.cc sets "r<kRuleSetVersion>-<binary hash>", so both a rule-set
  /// bump and an analyzer rebuild invalidate stale caches. "" means
  /// unstamped (in-process test configs).
  std::string cache_stamp;
  /// Lint only files whose content hash differs from the symbol cache,
  /// files the last run left findings in, and their call-graph/include
  /// neighborhood. Cross-file rules (include cycles, test registration)
  /// always run. Requires symbol_cache_path to be useful.
  bool changed_only = false;
  /// Worker threads for the R5a cold-start header compiles
  /// (0 = hardware_concurrency).
  int compile_jobs = 0;
};

/// Runs every rule over the file set and returns the surviving findings
/// (NOLINT-suppressed findings are dropped; stale suppressions become
/// findings themselves). Deterministic: sorted by file, line, rule.
std::vector<Finding> LintRepo(const std::vector<FileEntry>& files,
                              const LintConfig& config);

/// Graphviz dump of the interprocedural call graph with the HOGWILD /
/// hot-path classification as node colors (`--dump-callgraph=dot`).
std::string DumpCallGraph(const std::vector<FileEntry>& files);

/// `file:line: [rule] message` lines.
std::string FormatFindingsText(const std::vector<Finding>& findings);

/// JSON array of {file, line, rule, message} objects.
std::string FormatFindingsJson(const std::vector<Finding>& findings);

/// SARIF 2.1.0 log (one run, every rule declared) for GitHub code
/// scanning — CI uploads this on pull requests so findings annotate the
/// diff in place.
std::string FormatFindingsSarif(const std::vector<Finding>& findings);

/// Applies the fixes carried by `findings` (those with has_fix and
/// matching `path`) to `content` and returns the fixed text. Overlapping
/// fix spans are applied first-wins; spans out of bounds are skipped.
std::string ApplyFixes(const std::string& path, const std::string& content,
                       const std::vector<Finding>& findings);

}  // namespace actor_lint

#endif  // ACTOR_TOOLS_ACTOR_LINT_RULES_H_
