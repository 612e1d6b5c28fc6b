#!/usr/bin/env bash
# Pre-PR verification gate for the ACTOR repo (documented in ROADMAP.md).
#
# Runs, in order:
#   1. format check      — clang-format --dry-run (skipped if not installed)
#   2. actor-lint        — the repo's own static analyzer
#                          (tools/actor_lint, rule catalog in
#                          docs/static-analysis.md): thread/rng/SIMD
#                          hygiene, HOGWILD row discipline, header
#                          self-containedness, include-graph acyclicity,
#                          test registration, stale-NOLINT detection.
#                          Compiled on first use with the host c++ and
#                          cached in build/.
#   3. markdown links    — every relative link in *.md resolves (L5; stays
#                          in shell — actor-lint only reads C++ sources).
#   4. clang-tidy        — .clang-tidy over src/ (skipped if not installed)
#   5. build/test matrix — the default / sanitize / tsan presets, each built
#                          and run through ctest --output-on-failure. The
#                          tsan preset runs the whole suite under
#                          ThreadSanitizer (the `tsan` label marks the
#                          HOGWILD/serving concurrency tests) and must
#                          produce zero reports (suppressions: tsan.supp).
#
# Usage:
#   scripts/check.sh               # everything
#   scripts/check.sh --lint-only   # steps 1-4 only (seconds, no build)
#   scripts/check.sh --lint-fast   # actor-lint --changed-only against the
#                                  # symbol cache: re-lints only files whose
#                                  # hash changed plus their call-graph
#                                  # neighborhood (sub-second inner loop)
#   scripts/check.sh --preset tsan # lint + a single preset's build/test
#   scripts/check.sh --bench       # build default preset, run the
#                                  # throughput benches + the open-loop
#                                  # serving harness 3 times each, and
#                                  # diff each row's median (min/max and
#                                  # quartile spread printed) against the
#                                  # committed BENCH_*.json via
#                                  # scripts/bench_compare.py (warns on
#                                  # >10% drops / p99 rises; methodology:
#                                  # docs/benchmarking.md)
#
# The grep lints L1-L4 that used to live here were replaced by actor-lint
# rules R1/R2/R3/R6 — the analyzer lexes the sources, so it cannot be
# fooled by comments, strings, or macros the way the greps could.

set -u -o pipefail
cd "$(dirname "$0")/.."

MODE="all"
ONLY_PRESET=""
case "${1:-}" in
  --lint-only) MODE="lint" ;;
  --lint-fast) MODE="lint_fast" ;;
  --preset) MODE="one"; ONLY_PRESET="${2:?--preset needs a name}" ;;
  --bench) MODE="bench" ;;
  "") ;;
  *) echo "usage: $0 [--lint-only | --lint-fast" \
          "| --preset <default|sanitize|tsan> | --bench]" >&2
     exit 2 ;;
esac

FAILURES=0
note() { printf '\n==> %s\n' "$*"; }
fail() { printf 'FAIL: %s\n' "$*" >&2; FAILURES=$((FAILURES + 1)); }
pass() { printf 'ok:   %s\n' "$*"; }

# Build the analyzer from source when the checkout is newer than the cached
# binary (one-time ~6 s; the header-compile + symbol-index caches in build/
# keep repeat runs well under a second).
build_lint_bin() {
  mkdir -p build
  LINT_BIN=build/actor_lint
  LINT_SRCS=(tools/actor_lint/lexer.cc tools/actor_lint/symbols.cc
             tools/actor_lint/callgraph.cc tools/actor_lint/cfg.cc
             tools/actor_lint/rules.cc tools/actor_lint/main.cc)
  LINT_STALE=0
  for src in "${LINT_SRCS[@]}" tools/actor_lint/lexer.h \
             tools/actor_lint/symbols.h tools/actor_lint/callgraph.h \
             tools/actor_lint/cfg.h tools/actor_lint/rules.h; do
    [ "$src" -nt "$LINT_BIN" ] && LINT_STALE=1
  done
  if [ ! -x "$LINT_BIN" ] || [ "$LINT_STALE" -eq 1 ]; then
    echo "building $LINT_BIN"
    if ! c++ -std=c++20 -O2 -Wall -Wextra -pthread "${LINT_SRCS[@]}" \
         -o "$LINT_BIN"
    then
      fail "actor-lint: build failed"
      LINT_BIN=""
    fi
  fi
}

# --lint-fast: the sub-second inner loop. Re-lints only files whose hash
# differs from the symbol cache, plus their call-graph neighborhood and
# transitive includers; whole-repo rules (include cycles, test
# registration) always run. Header compiles are skipped — the full gate
# still owns R5a.
if [ "$MODE" = "lint_fast" ]; then
  note "actor-lint --changed-only"
  build_lint_bin
  [ -n "$LINT_BIN" ] || { echo; echo "1 check(s) failed"; exit 1; }
  if "$LINT_BIN" --cache=build/actor_lint.cache \
       --symbols=build/actor_lint.symbols --changed-only \
       --no-header-compile; then
    pass "actor-lint (changed-only)"
    exit 0
  fi
  fail "actor-lint reported findings (rule catalog: docs/static-analysis.md)"
  echo; echo "1 check(s) failed"; exit 1
fi

# --- 1. Format check -------------------------------------------------------
note "format check"
# Collect sources null-delimited into an array: robust against paths with
# spaces, and clang-format's exit status is checked directly instead of
# through a `| head` pipeline (head's early exit used to SIGPIPE
# clang-format and mask the real status).
CXX_SOURCES=()
while IFS= read -r -d '' f; do
  CXX_SOURCES+=("$f")
done < <(find src tests bench examples tools \
           \( -name '*.cc' -o -name '*.h' -o -name '*.cpp' \) -print0 \
         | sort -z)
if ! command -v clang-format >/dev/null 2>&1; then
  echo "skip: clang-format not installed in this container"
elif [ ! -f .clang-format ]; then
  # Without a committed style file clang-format falls back to LLVM
  # defaults, which the tree was never formatted with — running it would
  # only report noise (this matters on CI runners, where clang-format IS
  # installed).
  echo "skip: no .clang-format at the repo root"
else
  FORMAT_OUT=$(mktemp)
  if clang-format --dry-run -Werror "${CXX_SOURCES[@]}" >"$FORMAT_OUT" 2>&1
  then
    pass "clang-format"
  else
    fail "clang-format found formatting drift"
    head -40 "$FORMAT_OUT"
  fi
  rm -f "$FORMAT_OUT"
fi

# --- 2. actor-lint ---------------------------------------------------------
note "actor-lint"
build_lint_bin
if [ -n "$LINT_BIN" ]; then
  if "$LINT_BIN" --cache=build/actor_lint.cache \
       --symbols=build/actor_lint.symbols; then
    pass "actor-lint"
  else
    fail "actor-lint reported findings (rule catalog:" \
         "docs/static-analysis.md)"
  fi
fi

# --- 3. Markdown links -----------------------------------------------------
note "markdown links"
# L5: relative markdown links must resolve. Matches [text](path) where path
# is not an external URL or pure #anchor; strips any #fragment before the
# existence check.
L5_STATUS=0
while IFS=: read -r md link; do
  target="${link%%#*}"
  [ -z "$target" ] && continue  # same-file #anchor
  if [ ! -e "$(dirname "$md")/$target" ] && [ ! -e "$target" ]; then
    fail "L5: $md links to missing file: $link"; L5_STATUS=1
  fi
done < <(grep -rnoE '\]\(([^)#:[:space:]]+[^):[:space:]]*)\)' \
           --include='*.md' . 2>/dev/null \
         | grep -v '/build' | grep -v 'third_party' \
         | sed -E 's/:[0-9]+:\]\(/:/; s/\)$//' \
         | grep -vE ':(https?|mailto)' )
[ "$L5_STATUS" -eq 0 ] && pass "L5: markdown links resolve"

# --- 4. clang-tidy ---------------------------------------------------------
note "clang-tidy"
if command -v clang-tidy >/dev/null 2>&1; then
  # clang-tidy needs a compile database; configuring needs the project's
  # dependencies (gtest/benchmark), which a bare lint environment may not
  # have — skip rather than fail in that case.
  if cmake --preset default >/dev/null 2>&1; then
    if find src -name '*.cc' | xargs clang-tidy -p build --quiet; then
      pass "clang-tidy"
    else
      fail "clang-tidy reported findings"
    fi
  else
    echo "skip: cmake configure failed (missing build deps?); clang-tidy"
    echo "      needs build/compile_commands.json"
  fi
else
  echo "skip: clang-tidy not installed in this container (.clang-tidy is"
  echo "      still the source of truth where it is available)"
fi

if [ "$MODE" = "lint" ]; then
  note "lint-only mode: skipping build/test matrix"
  [ "$FAILURES" -eq 0 ] || { echo; echo "$FAILURES check(s) failed"; exit 1; }
  echo; echo "all lint checks passed"; exit 0
fi

# --- Benchmark regression hook --------------------------------------------
# Rebuilds the default preset, runs each harness BENCH_RUNS times, and
# diffs each row's median across the runs against the committed
# BENCH_*.json baselines; one run on this host spreads as wide as the
# threshold. Drops beyond 10% print a REGRESSION warning but do not fail
# the gate: the committed numbers carry machine drift, so the protocol
# (EXPERIMENTS.md, "Benchmark workflow") is to A/B the prior commit on the
# same machine before believing a drop.
if [ "$MODE" = "bench" ]; then
  note "bench mode: rebuild + throughput comparison"
  cmake --preset default >/dev/null || { fail "configure"; exit 1; }
  cmake --build --preset default -j "$(nproc)" \
    --target sgd_throughput online_throughput query_throughput serve_load \
    || { fail "bench build"; exit 1; }
  BENCH_RUNS=3
  BENCH_TMP=$(mktemp -d)
  trap 'rm -rf "$BENCH_TMP"' EXIT
  for bench in sgd online query serve; do
    json="BENCH_${bench}.json"
    # Bench name -> producing binary (docs/benchmarking.md has the full
    # matrix): serve comes from the open-loop serve_load harness, the rest
    # from the closed-loop *_throughput ones.
    case "$bench" in
      serve) bin="build/bench/serve_load" ;;
      *)     bin="build/bench/${bench}_throughput" ;;
    esac
    if [ ! -f "$json" ]; then
      echo "skip: no committed $json baseline"; continue
    fi
    runs=()
    for run in $(seq 1 "$BENCH_RUNS"); do
      note "running $(basename "$bin") ($run/$BENCH_RUNS)"
      if ! "$bin" --out="$BENCH_TMP/$run.$json"; then
        fail "$(basename "$bin") run $run"; continue 2
      fi
      runs+=("$BENCH_TMP/$run.$json")
    done
    note "comparing $json (committed vs median of $BENCH_RUNS fresh runs)"
    python3 scripts/bench_compare.py "$json" "${runs[@]}" \
      || fail "bench_compare on $json"
  done
  echo
  [ "$FAILURES" -eq 0 ] || { echo "$FAILURES check(s) failed"; exit 1; }
  echo "bench comparison done (warnings above, if any, need same-machine A/B)"
  exit 0
fi

# --- 4. Build + test matrix ------------------------------------------------
PRESETS=(default sanitize tsan)
[ "$MODE" = "one" ] && PRESETS=("$ONLY_PRESET")
for preset in "${PRESETS[@]}"; do
  note "preset $preset: configure + build"
  if ! cmake --preset "$preset" >/dev/null; then
    fail "preset $preset: configure"; continue
  fi
  if ! cmake --build --preset "$preset" -j "$(nproc)"; then
    fail "preset $preset: build"; continue
  fi
  note "preset $preset: ctest"
  if ctest --preset "$preset" -j "$(nproc)"; then
    pass "preset $preset tests"
  else
    fail "preset $preset: tests"
  fi
done

echo
if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES check(s) failed"; exit 1
fi
echo "all checks passed"
