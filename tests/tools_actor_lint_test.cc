// Fixture tests for tools/actor_lint: every rule must fire on a known-bad
// snippet, every allowed form must pass, and the suppression machinery
// (NOLINT / NOLINTNEXTLINE / staleness) must behave exactly as documented
// in docs/static-analysis.md. The suite drives LintRepo() on virtual file
// sets, so no filesystem or build tree is needed (except the one header
// self-containedness test, which shells out to the real compiler).

#include "tools/actor_lint/rules.h"

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "tools/actor_lint/cfg.h"
#include "tools/actor_lint/lexer.h"

namespace actor_lint {
namespace {

std::vector<Finding> Lint(const std::vector<FileEntry>& files) {
  LintConfig config;
  config.compile_headers = false;
  return LintRepo(files, config);
}

int CountRule(const std::vector<Finding>& findings, const char* rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [rule](const Finding& f) { return f.rule == rule; }));
}

// --- Lexer -----------------------------------------------------------------

TEST(Lexer, BlanksCommentsAndStringsButKeepsOffsets) {
  const std::string src =
      "int a; // std::thread in a comment\n"
      "const char* s = \"std::thread in a string\";\n"
      "int b;\n";
  const LexedFile f = Lex("src/x.cc", src);
  EXPECT_EQ(f.code.size(), src.size());
  EXPECT_EQ(f.code.find("thread"), std::string::npos);
  EXPECT_NE(f.code.find("int b;"), std::string::npos);
  ASSERT_EQ(f.comments.size(), 1u);
  EXPECT_EQ(f.comments[0].line, 1);
  EXPECT_NE(f.comments[0].text.find("std::thread"), std::string::npos);
  EXPECT_EQ(f.LineAt(f.code.find("int b;")), 3);
}

TEST(Lexer, RawStringsAndDigitSeparators) {
  const std::string src =
      "auto r = R\"x(std::thread rand( time( )x\";\n"
      "int n = 1'000'000;  // separator, not a char literal\n"
      "char c = 'r';\n"
      "int rand_count;\n";
  const LexedFile f = Lex("src/x.cc", src);
  EXPECT_EQ(f.code.find("thread"), std::string::npos);
  EXPECT_NE(f.code.find("1'000'000"), std::string::npos);
  EXPECT_NE(f.code.find("rand_count"), std::string::npos);
}

TEST(Lexer, DisabledRegionsAreBlankedAndDefineBodiesKept) {
  const std::string src =
      "#if 0\n"
      "std::thread dead;\n"
      "#endif\n"
      "#define BAD() srand(42)\n"
      "#include \"util/rng.h\"\n"
      "#include <vector>\n";
  const LexedFile f = Lex("src/x.cc", src);
  EXPECT_EQ(f.code.find("thread"), std::string::npos);
  EXPECT_NE(f.code.find("srand(42)"), std::string::npos)
      << "macro bodies must stay visible so they cannot hide banned calls";
  ASSERT_EQ(f.includes.size(), 2u);
  EXPECT_EQ(f.includes[0].path, "util/rng.h");
  EXPECT_FALSE(f.includes[0].angled);
  EXPECT_EQ(f.includes[1].path, "vector");
  EXPECT_TRUE(f.includes[1].angled);
}

// --- R1: actor-thread ------------------------------------------------------

TEST(RuleThread, FiresOnRawStdThread) {
  const auto findings = Lint({{"src/x.cc",
                              "#include <thread>\n"
                              "std::thread t;\n"
                              "auto f = std::async([] {});\n"}});
  EXPECT_EQ(CountRule(findings, kRuleThread), 2);
  EXPECT_EQ(findings[0].line, 2);
}

TEST(RuleThread, AllowsHardwareConcurrencyAndThreadPool) {
  const auto findings =
      Lint({{"src/x.cc",
            "unsigned n = std::thread::hardware_concurrency();\n"},
           {"src/util/thread_pool.cc", "std::thread worker([] {});\n"},
           {"src/y.cc", "// std::thread only in a comment\n"
                        "const char* s = \"std::async\";\n"}});
  EXPECT_EQ(CountRule(findings, kRuleThread), 0);
}

// --- R2: actor-rng ---------------------------------------------------------

TEST(RuleRng, FiresOnEveryBannedForm) {
  const auto findings = Lint({{"src/x.cc",
                              "int a = rand();\n"
                              "void f() { srand(7); }\n"
                              "long t = time(nullptr);\n"
                              "long u = std::time(nullptr);\n"
                              "std::random_device rd;\n"
                              "auto n = std::chrono::system_clock::now();\n"}});
  EXPECT_EQ(CountRule(findings, kRuleRng), 6);
}

TEST(RuleRng, AllowsMemberCallsQualifiedCallsAndBlessedFiles) {
  const auto findings =
      Lint({{"src/x.cc",
            "double v = stopwatch.time();\n"   // member call
            "double w = clock->time();\n"      // member via pointer
            "int z = Scheduler::time(3);\n"},  // non-std qualifier
           {"src/util/rng.h", "std::random_device rd;\n"},
           {"src/util/stopwatch.h",
            "auto t = std::chrono::system_clock::now();\n"}});
  EXPECT_EQ(CountRule(findings, kRuleRng), 0);
}

// --- R3: actor-simd-aligned ------------------------------------------------

TEST(RuleSimdAligned, FiresOnAlignedLoadStoreStream) {
  const auto findings = Lint({{"src/util/k.cc",
                              "__m256 v = _mm256_load_ps(p);\n"
                              "_mm_store_pd(q, w);\n"
                              "_mm512_stream_ps(r, x);\n"}});
  EXPECT_EQ(CountRule(findings, kRuleSimdAligned), 3);
}

TEST(RuleSimdAligned, AllowsUnalignedFormsAndNonSrcFiles) {
  const auto findings =
      Lint({{"src/util/k.cc",
            "__m256 v = _mm256_loadu_ps(p);\n"
            "_mm256_storeu_pd(q, w);\n"
            "__m128 s = _mm_load_ss(p);\n"},  // scalar load, no alignment
           {"bench/k.cc", "__m256 v = _mm256_load_ps(p);\n"}});
  EXPECT_EQ(CountRule(findings, kRuleSimdAligned), 0);
}

// --- R4: actor-hogwild -----------------------------------------------------

TEST(RuleHogwild, FiresOnDirectRowSubscriptInDispatchedLambda) {
  const auto findings = Lint({{"src/embedding/x.cc",
                              "void f() {\n"
                              "  pool->ShardedRange(0, n, [&](int s) {\n"
                              "    m.row(u)[0] += 1.0f;\n"
                              "  });\n"
                              "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleHogwild), 1);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(RuleHogwild, FiresInsideAnnotatedRegion) {
  const auto findings = Lint({{"src/other/x.cc",  // outside auto-detect dirs
                              "// actor-lint: hogwild-region\n"
                              "void Shard() {\n"
                              "  float v = ctx->row(u)[k];\n"
                              "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleHogwild), 1);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(RuleHogwild, AllowsRelaxedAccessorsKernelCallsAndOutsideCode) {
  const auto findings =
      Lint({{"src/embedding/x.cc",
            "void f() {\n"
            "  pool->ShardedRange(0, n, [&](int s) {\n"
            "    float v = RelaxedLoad(&m.row(u)[k]);\n"
            "    RelaxedStore(&m.row(u)[k], v);\n"
            "    Add(grad.data(), m.row(u), dim);\n"
            "  });\n"
            "  m.row(u)[0] = 1.0f;  // sequential code outside the region\n"
            "}\n"}});
  EXPECT_EQ(CountRule(findings, kRuleHogwild), 0);
}

TEST(RuleHogwild, FiresOnMemberDirtySetWriteInDispatchedLambda) {
  // DirtyRowSet has no atomics: marking a member set shared across shards
  // from inside a hogwild region is a data race (the delta-publish
  // contract routes marks through shard-local sets, merged at barriers).
  const auto findings = Lint({{"src/core/x.cc",
                              "void f() {\n"
                              "  pool->ShardedRange(0, n, [&](int s) {\n"
                              "    dirty_.Mark(u);\n"
                              "  });\n"
                              "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleHogwild), 1);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(RuleHogwild, FiresOnMemberDirtySetWriteInAnnotatedRegion) {
  const auto findings = Lint({{"src/other/x.cc",  // outside auto-detect dirs
                              "// actor-lint: hogwild-region\n"
                              "void Shard() {\n"
                              "  dirty_.MarkAll();\n"
                              "  this->dirty_.Clear();\n"
                              "}\n"}});
  EXPECT_EQ(CountRule(findings, kRuleHogwild), 2);
}

TEST(RuleHogwild, AllowsShardLocalDirtySetWrites) {
  const auto findings =
      Lint({{"src/core/x.cc",
            "// actor-lint: hogwild-region\n"
            "void Shard(DirtyRowSet* dirty) {\n"
            "  dirty->Mark(u);\n"                // threaded shard parameter
            "  DirtyRowSet local;\n"
            "  local.Mark(v);\n"                 // shard-local value
            "  shard_dirty_[s].Mark(w);\n"       // subscripted per-shard slot
            "}\n"
            "void Merge() {\n"
            "  dirty_.Mark(u);\n"  // sequential code outside any region
            "  dirty_.Clear();\n"
            "}\n"}});
  EXPECT_EQ(CountRule(findings, kRuleHogwild), 0);
}

// --- R8: actor-serve-readonly ----------------------------------------------

TEST(RuleServeReadOnly, FiresOnMutatorCallsInEvalAndServe) {
  const auto findings =
      Lint({{"src/serve/x.cc",
            "void f(EmbeddingMatrix& m) {\n"
            "  m.InitUniform(16, rng);\n"
            "  m.SetRow(0, v.data());\n"
            "}\n"},
           {"src/eval/y.cc",
            "void g(EmbeddingMatrix* m) {\n"
            "  m->InitZero(8);\n"
            "  m->AppendRows(4);\n"
            "}\n"}});
  EXPECT_EQ(CountRule(findings, kRuleServeReadOnly), 4);
}

TEST(RuleServeReadOnly, FiresOnRowElementWrites) {
  const auto findings = Lint({{"src/eval/x.cc",
                              "void f() {\n"
                              "  m.row(u)[0] = 1.0f;\n"
                              "  m.row(u)[1] += 2.0f;\n"
                              "  snap->center().row(v)[k] *= 0.5f;\n"
                              "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleServeReadOnly), 3);
  EXPECT_EQ(findings[0].line, 2);
}

TEST(RuleServeReadOnly, FiresOnRowInMutatedKernelArg) {
  const auto findings =
      Lint({{"src/serve/x.cc",
            "void f() {\n"
            "  Axpy(0.1f, g.data(), m.row(u), dim);\n"
            "  Scale(0.5f, m.row(u), dim);\n"
            "  Zero(m.row(u), dim);\n"
            "  FusedGradStep(g, c.row(a), x.row(b), grad.data(), dim);\n"
            "  RelaxedStore(&m.row(u)[k], v);\n"
            "}\n"}});
  EXPECT_EQ(CountRule(findings, kRuleServeReadOnly), 5);
}

TEST(RuleServeReadOnly, FiresOnRowInNegativeSamplingStepOutputs) {
  // Both mutated arguments: the context rows and the gradient.
  const auto findings =
      Lint({{"src/eval/x.cc",
            "void f() {\n"
            "  float* rows[] = {ctx};\n"
            "  NegativeSamplingStep(q, &m.row(u), 1, true, lr, sig, g, d);\n"
            "  NegativeSamplingStep(q, rows, 1, true, lr, sig, m.row(u), d);\n"
            "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleServeReadOnly), 2);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_EQ(findings[1].line, 4);
}

TEST(RuleServeReadOnly, AllowsNegativeSamplingStepReadingACenterRow) {
  // The center is a const source: passing row() there mutates nothing.
  const auto findings =
      Lint({{"src/serve/x.cc",
            "void f() {\n"
            "  NegativeSamplingStep(m.row(u), rows, n, true, lr, sig, g, d);\n"
            "}\n"}});
  EXPECT_EQ(CountRule(findings, kRuleServeReadOnly), 0);
}

TEST(RuleServeReadOnly, AllowsReadsAndOtherDirectories) {
  const auto findings =
      Lint({{"src/eval/x.cc",
            "void f() {\n"
            "  const float* r = m.row(u);\n"
            "  float v = m.row(u)[0];\n"
            "  bool eq = m.row(u)[0] == 1.0f;\n"
            "  float d = Dot(q, m.row(u), dim);\n"
            "  Add(center.row(v), out->data(), dim);\n"
            "  DotAndNorm2(q, m.row(u), dim, &dot, &n2);\n"
            "}\n"},
           {"src/embedding/y.cc",  // mutation fine outside eval/serve
            "void g() {\n"
            "  m.row(u)[0] = 1.0f;\n"
            "  m.InitUniform(16, rng);\n"
            "}\n"}});
  EXPECT_EQ(CountRule(findings, kRuleServeReadOnly), 0);
}

TEST(RuleServeReadOnly, SuppressibleWithNolint) {
  const auto findings =
      Lint({{"src/serve/x.cc",
            "void f() {\n"
            "  m.row(u)[0] = 1.0f;  // NOLINT(actor-serve-readonly)\n"
            "}\n"}});
  EXPECT_EQ(CountRule(findings, kRuleServeReadOnly), 0);
  EXPECT_EQ(CountRule(findings, kRuleStaleNolint), 0);
}

// --- R5b: actor-include-cycle ----------------------------------------------

TEST(RuleIncludeCycle, FiresOnceOnACycle) {
  const auto findings = Lint({{"src/a.h", "#include \"b.h\"\n"},
                             {"src/b.h", "#include \"util/c.h\"\n"},
                             {"src/util/c.h", "#include \"a.h\"\n"}});
  ASSERT_EQ(CountRule(findings, kRuleIncludeCycle), 1);
  EXPECT_NE(findings[0].message.find("src/a.h"), std::string::npos);
  EXPECT_NE(findings[0].message.find("src/util/c.h"), std::string::npos);
}

TEST(RuleIncludeCycle, AcyclicGraphIsClean) {
  const auto findings = Lint({{"src/a.h", "#include \"b.h\"\n"},
                             {"src/b.h", "#include <vector>\n"},
                             {"src/c.cc", "#include \"a.h\"\n"
                                          "#include \"b.h\"\n"}});
  EXPECT_EQ(CountRule(findings, kRuleIncludeCycle), 0);
}

// --- R5a: actor-header-self ------------------------------------------------

TEST(RuleHeaderSelf, CompileCheckAttributesTheBrokenHeader) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() / "actor_lint_hdr_test";
  fs::create_directories(root / "src");
  const auto write = [&root](const char* rel, const char* text) {
    std::ofstream(root / rel) << text;
  };
  write("src/good.h", "#include <vector>\ninline int G() { return 1; }\n");
  write("src/bad.h", "inline int B() { return UndeclaredThing(); }\n");

  std::vector<FileEntry> files = {
      {"src/good.h", "#include <vector>\ninline int G() { return 1; }\n"},
      {"src/bad.h", "inline int B() { return UndeclaredThing(); }\n"}};
  LintConfig config;
  config.root = root.string();
  config.compile_headers = true;
  config.compile_flags = {"-std=c++20"};
  const auto findings = LintRepo(files, config);
  ASSERT_EQ(CountRule(findings, kRuleHeaderSelf), 1);
  EXPECT_EQ(findings[0].file, "src/bad.h");
  fs::remove_all(root);
}

// --- R6: actor-test-reg ----------------------------------------------------

TEST(RuleTestReg, FiresInBothDirections) {
  const auto findings =
      Lint({{"tests/orphan_test.cc", "int main() {}\n"},
           {"tests/CMakeLists.txt",
            "# actor_test(commented_out_test) must be ignored\n"
            "actor_test(ghost_test LABELS tsan)\n"}});
  ASSERT_EQ(CountRule(findings, kRuleTestReg), 2);
  EXPECT_EQ(findings[0].file, "tests/CMakeLists.txt");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("ghost_test"), std::string::npos);
  EXPECT_EQ(findings[1].file, "tests/orphan_test.cc");
}

TEST(RuleTestReg, MatchedRegistrationsAreClean) {
  const auto findings =
      Lint({{"tests/foo_test.cc", "int main() {}\n"},
           {"tests/CMakeLists.txt", "actor_test(foo_test)\n"}});
  EXPECT_EQ(CountRule(findings, kRuleTestReg), 0);
}

// --- Suppressions ----------------------------------------------------------

TEST(Suppression, NolintOnSameLineSuppresses) {
  const auto findings =
      Lint({{"src/x.cc", "int a = rand();  // NOLINT(actor-rng) fixture\n"}});
  EXPECT_EQ(CountRule(findings, kRuleRng), 0);
  EXPECT_EQ(CountRule(findings, kRuleStaleNolint), 0);
}

TEST(Suppression, NolintNextLineAndWildcard) {
  const auto findings = Lint({{"src/x.cc",
                              "// NOLINTNEXTLINE(actor-rng)\n"
                              "int a = rand();\n"
                              "std::thread t;  // NOLINT(actor-*)\n"}});
  EXPECT_EQ(CountRule(findings, kRuleRng), 0);
  EXPECT_EQ(CountRule(findings, kRuleThread), 0);
  EXPECT_EQ(CountRule(findings, kRuleStaleNolint), 0);
}

TEST(Suppression, StaleNolintBecomesAFinding) {
  // An actor-rule NOLINT that no longer suppresses anything must fail
  // the lint, so silenced findings cannot rot in place. (Writing the
  // paren syntax out here would register a real suppression — the
  // analyzer scans this file too.)
  const auto findings =
      Lint({{"src/x.cc", "int clean = 0;  // NOLINT(actor-thread)\n"}});
  ASSERT_EQ(CountRule(findings, kRuleStaleNolint), 1);
  EXPECT_EQ(findings[0].line, 1);
}

TEST(Suppression, PartiallyStaleListReportsOnlyTheDeadEntry) {
  const auto findings = Lint(
      {{"src/x.cc",
        "int a = rand();  // NOLINT(actor-rng,actor-thread) half stale\n"}});
  EXPECT_EQ(CountRule(findings, kRuleRng), 0);
  ASSERT_EQ(CountRule(findings, kRuleStaleNolint), 1);
  EXPECT_NE(findings[0].message.find("actor-thread"), std::string::npos);
}

TEST(Suppression, NonActorNolintsAreIgnored) {
  // clang-tidy style suppressions for other tools are not ours to police —
  // and they do not suppress actor findings either.
  const auto findings = Lint(
      {{"src/x.cc",
        "int a = rand();  // NOLINT(cppcoreguidelines-avoid-magic-numbers)\n"}});
  EXPECT_EQ(CountRule(findings, kRuleRng), 1);
  EXPECT_EQ(CountRule(findings, kRuleStaleNolint), 0);
}

// --- Interprocedural R4: call-graph HOGWILD propagation --------------------

TEST(CallGraphHogwild, PropagatesIntoHelperWithZeroAnnotations) {
  const auto findings = Lint({{"src/embedding/x.cc",
                              "void Helper(M& m) {\n"
                              "  m.row(u)[0] += 1.0f;\n"
                              "}\n"
                              "void f(M& m) {\n"
                              "  pool->ShardedRange(0, n, [&](int s) {\n"
                              "    Helper(m);\n"
                              "  });\n"
                              "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleHogwild), 1);
  EXPECT_EQ(findings[0].line, 2);
}

TEST(CallGraphHogwild, PropagatesTwoHopsAcrossFiles) {
  const auto findings = Lint(
      {{"src/embedding/a.cc",
        "void f(M& m) {\n"
        "  pool->ParallelFor(0, n, [&](int i) { StepOne(m); });\n"
        "}\n"},
       {"src/core/b.cc",
        "void StepOne(M& m) {\n"
        "  StepTwo(m);\n"
        "}\n"
        "void StepTwo(M& m) {\n"
        "  m.row(u)[0] += 1.0f;\n"
        "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleHogwild), 1);
  EXPECT_EQ(findings[0].file, "src/core/b.cc");
  EXPECT_EQ(findings[0].line, 5);
}

TEST(CallGraphHogwild, LambdaVariableDispatchedByName) {
  // `pool->ShardedRange(0, n, shard)` seeds the named lambda's body even
  // though no lambda literal appears at the dispatch site.
  const auto findings = Lint({{"src/embedding/x.cc",
                              "void f(M& m) {\n"
                              "  auto shard = [&](int t, std::size_t lo,\n"
                              "                   std::size_t hi) {\n"
                              "    m.row(u)[0] += 1.0f;\n"
                              "  };\n"
                              "  pool->ShardedRange(0, n, shard);\n"
                              "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleHogwild), 1);
  EXPECT_EQ(findings[0].line, 4);
}

TEST(CallGraphHogwild, LambdaVariableCalledFromDispatchLambda) {
  const auto findings = Lint({{"src/embedding/x.cc",
                              "void f(M& m) {\n"
                              "  auto shard = [&](int t) {\n"
                              "    m.row(u)[0] += 1.0f;\n"
                              "  };\n"
                              "  pool->ShardedRange(0, n, [&](int a) {\n"
                              "    shard(a);\n"
                              "  });\n"
                              "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleHogwild), 1);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(CallGraphHogwild, OverloadsAreDiscriminatedByArity) {
  // The 2-arg Step is dispatched; the 1-arg overload's row write must not
  // fire — the conservative resolver still prunes by argument count.
  const auto findings = Lint({{"src/embedding/x.cc",
                              "void Step(M& m, int k) {\n"
                              "  m.row(u)[0] += 1.0f;\n"
                              "}\n"
                              "void Step(M& m) {\n"
                              "  m.row(u)[1] += 2.0f;\n"
                              "}\n"
                              "void f(M& m) {\n"
                              "  pool->ShardedRange(0, n, [&](int s) {\n"
                              "    Step(m, s);\n"
                              "  });\n"
                              "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleHogwild), 1);
  EXPECT_EQ(findings[0].line, 2);
}

TEST(CallGraphHogwild, MemberCallReachesOnlyTheMethod) {
  // `agg.Score(m)` is a member call: it resolves to Agg::Score, not the
  // free function of the same name.
  const auto findings = Lint({{"src/embedding/x.cc",
                              "struct Agg {\n"
                              "  void Score(M& m) {\n"
                              "    m.row(u)[0] += 1.0f;\n"
                              "  }\n"
                              "};\n"
                              "void Score(M& m) {\n"
                              "  m.row(u)[1] += 2.0f;\n"
                              "}\n"
                              "void f(Agg& agg, M& m) {\n"
                              "  pool->ParallelFor(0, n, [&](int i) {\n"
                              "    agg.Score(m);\n"
                              "  });\n"
                              "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleHogwild), 1);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(CallGraphHogwild, RecursionTerminates) {
  const auto findings = Lint({{"src/embedding/x.cc",
                              "void Walk(M& m, int d) {\n"
                              "  if (d > 0) Walk(m, d - 1);\n"
                              "  m.row(u)[0] += 1.0f;\n"
                              "}\n"
                              "void f(M& m) {\n"
                              "  pool->ShardedRange(0, n, [&](int s) {\n"
                              "    Walk(m, s);\n"
                              "  });\n"
                              "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleHogwild), 1);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(CallGraphHogwild, DerivedAnnotationIsReportedRedundant) {
  // The helper is reachable from the dispatch, so the manual annotation
  // adds nothing: the lint asks for its removal at the comment line.
  const auto findings = Lint({{"src/embedding/x.cc",
                              "void f(M& m) {\n"
                              "  pool->ShardedRange(0, n, [&](int s) {\n"
                              "    Helper(m);\n"
                              "  });\n"
                              "}\n"
                              "// actor-lint: hogwild-region\n"
                              "void Helper(M& m) {\n"
                              "  RelaxedStore(&m.row(u)[0], 1.0f);\n"
                              "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleHogwild), 1);
  EXPECT_EQ(findings[0].line, 6);
  EXPECT_NE(findings[0].message.find("redundant"), std::string::npos);
}

// --- R9: actor-snapshot-lifetime -------------------------------------------

TEST(RuleSnapshotLifetime, FiresOnGetFromTheTemporary) {
  const auto findings =
      Lint({{"src/serve/x.cc",
            "void f(SnapshotStore& store) {\n"
            "  const ModelSnapshot* s = store.Acquire().get();\n"
            "  Use(s);\n"
            "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleSnapshotLifetime), 1);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("temporary"), std::string::npos);
}

TEST(RuleSnapshotLifetime, FiresOnMemberAndStaticStores) {
  const auto findings =
      Lint({{"src/serve/x.cc",
            "void f(const OnlineActor& actor) {\n"
            "  auto snap = actor.CurrentSnapshot();\n"
            "  snap_ = snap.get();\n"
            "  static const ModelSnapshot* cached = snap.get();\n"
            "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleSnapshotLifetime), 2);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("member"), std::string::npos);
  EXPECT_EQ(findings[1].line, 4);
  EXPECT_NE(findings[1].message.find("static"), std::string::npos);
}

TEST(RuleSnapshotLifetime, FiresWhenRawPointerCrossesDispatch) {
  const auto findings =
      Lint({{"src/serve/x.cc",
            "void f(SnapshotStore& store, ThreadPool* pool) {\n"
            "  auto snap = store.Acquire();\n"
            "  pool->Submit([p = snap.get()] { Use(p); });\n"
            "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleSnapshotLifetime), 1);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("dispatch"), std::string::npos);
}

TEST(RuleSnapshotLifetime, AllowsSharedPtrStoresAndPlainLocals) {
  const auto findings =
      Lint({{"src/serve/x.cc",
            "void f(SnapshotStore& store) {\n"
            "  auto snap = store.Acquire();\n"
            "  snapshot_ = snap;\n"                // shared_ptr member: fine
            "  const auto& c = snap->center();\n"  // deref, not .get()
            "  const ModelSnapshot* local = snap.get();\n"  // plain local
            "  Use(local);\n"
            "}\n"},
           // The rule polices src/ only — tooling may hold raw pointers.
           {"tools/x.cc",
            "void g(SnapshotStore& store) {\n"
            "  auto p = store.Acquire().get();\n"
            "}\n"}});
  EXPECT_EQ(CountRule(findings, kRuleSnapshotLifetime), 0);
}

// --- R10: actor-hot-path-blocking ------------------------------------------

TEST(RuleHotPath, BansMutexIoAndAllocInReachableHelpers) {
  const auto findings = Lint({{"src/embedding/x.cc",
                              "void Helper() {\n"
                              "  std::lock_guard<std::mutex> g(mu);\n"
                              "  printf(\"x\");\n"
                              "  std::vector<float> tmp(8);\n"
                              "}\n"
                              "void f() {\n"
                              "  pool->ShardedRange(0, n, [&](int s) {\n"
                              "    Helper();\n"
                              "  });\n"
                              "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleHotPath), 3);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[1].line, 3);
  EXPECT_EQ(findings[2].line, 4);
  EXPECT_NE(findings[0].message.find("reachable from a HOGWILD region"),
            std::string::npos);
}

TEST(RuleHotPath, QueryRootMayAllocateButNotLock) {
  // The scoring entry point itself may build its result vector (scratch
  // at the boundary); taking a lock there still blocks the read path.
  const auto findings = Lint({{"src/serve/x.cc",
                              "struct QueryEngine {\n"
                              "  int QueryByVector(int k) const {\n"
                              "    std::vector<int> out(k);\n"
                              "    std::lock_guard<std::mutex> g(mu_);\n"
                              "    return out[0];\n"
                              "  }\n"
                              "};\n"}});
  ASSERT_EQ(CountRule(findings, kRuleHotPath), 1);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("QueryEngine scoring path"),
            std::string::npos);
}

TEST(RuleHotPath, FollowsTheNeighborSearcherAlias) {
  // Methods defined through the `using NeighborSearcher = QueryEngine`
  // alias are canonicalized, so their callees join the scoring path.
  const auto findings = Lint({{"src/serve/x.cc",
                              "using NeighborSearcher = QueryEngine;\n"
                              "int NeighborSearcher::QueryNearest(int k)"
                              " const {\n"
                              "  return Score(k);\n"
                              "}\n"
                              "int Score(int k) {\n"
                              "  std::vector<int> tmp(k);\n"
                              "  return tmp[0];\n"
                              "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleHotPath), 1);
  EXPECT_EQ(findings[0].line, 6);
}

TEST(RuleHotPath, AllocationOffTheHotPathIsClean) {
  const auto findings = Lint({{"src/embedding/x.cc",
                              "void Cold() {\n"
                              "  std::vector<float> tmp(8);\n"
                              "  std::lock_guard<std::mutex> g(mu);\n"
                              "}\n"}});
  EXPECT_EQ(CountRule(findings, kRuleHotPath), 0);
}

// --- CFG construction ------------------------------------------------------

int BlockContaining(const Cfg& cfg, std::size_t offset) {
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    for (const CfgStmt& st : cfg.blocks[b].stmts) {
      if (st.begin <= offset && offset < st.end) return static_cast<int>(b);
    }
  }
  return -1;
}

// True when a non-empty path of CFG edges leads from `from` to `to`
// (from == to detects a cycle through a back edge).
bool Reaches(const Cfg& cfg, int from, int to) {
  std::set<int> seen;
  std::vector<int> work{from};
  while (!work.empty()) {
    const int b = work.back();
    work.pop_back();
    for (const int s : cfg.blocks[static_cast<std::size_t>(b)].succs) {
      if (s == to) return true;
      if (seen.insert(s).second) work.push_back(s);
    }
  }
  return false;
}

Cfg BuildBodyCfg(const std::string& code) {
  return BuildCfg(code, code.find('{'), code.rfind('}'));
}

TEST(Cfg, StraightLineBodyIsOneBlock) {
  const std::string code = "void f() { int a = 1; int b = 2; }";
  const Cfg cfg = BuildBodyCfg(code);
  const int ba = BlockContaining(cfg, code.find("int a"));
  const int bb = BlockContaining(cfg, code.find("int b"));
  ASSERT_NE(ba, -1);
  EXPECT_EQ(ba, bb);
  EXPECT_TRUE(Reaches(cfg, ba, cfg.exit_block));
}

TEST(Cfg, IfElseDiamondSplitsAndJoins) {
  const std::string code =
      "void f(bool c) {\n"
      "  int pre = 0;\n"
      "  if (c) { int t = 1; } else { int e = 2; }\n"
      "  int post = 3;\n"
      "}";
  const Cfg cfg = BuildBodyCfg(code);
  const int bt = BlockContaining(cfg, code.find("int t"));
  const int be = BlockContaining(cfg, code.find("int e"));
  const int bp = BlockContaining(cfg, code.find("int post"));
  ASSERT_NE(bt, -1);
  ASSERT_NE(be, -1);
  ASSERT_NE(bp, -1);
  EXPECT_NE(bt, be);
  EXPECT_FALSE(Reaches(cfg, bt, be));  // branches are exclusive...
  EXPECT_FALSE(Reaches(cfg, be, bt));
  EXPECT_TRUE(Reaches(cfg, bt, bp));  // ...and rejoin before `post`
  EXPECT_TRUE(Reaches(cfg, be, bp));
}

TEST(Cfg, WhileLoopHasABackEdge) {
  const std::string code =
      "void f(int n) {\n"
      "  int i = 0;\n"
      "  while (i < n) { i += 1; }\n"
      "  int post = 1;\n"
      "}";
  const Cfg cfg = BuildBodyCfg(code);
  const int body = BlockContaining(cfg, code.find("i += 1"));
  const int post = BlockContaining(cfg, code.find("int post"));
  ASSERT_NE(body, -1);
  ASSERT_NE(post, -1);
  EXPECT_TRUE(Reaches(cfg, body, body)) << "loop body must reach itself";
  EXPECT_TRUE(Reaches(cfg, body, post));
}

TEST(Cfg, EarlyReturnEdgesToExitOnly) {
  const std::string code =
      "void f(bool c) {\n"
      "  if (c) { return; }\n"
      "  int post = 0;\n"
      "}";
  const Cfg cfg = BuildBodyCfg(code);
  const int ret = BlockContaining(cfg, code.find("return"));
  const int post = BlockContaining(cfg, code.find("int post"));
  ASSERT_NE(ret, -1);
  ASSERT_NE(post, -1);
  EXPECT_FALSE(Reaches(cfg, ret, post));
  EXPECT_TRUE(Reaches(cfg, ret, cfg.exit_block));
  EXPECT_TRUE(Reaches(cfg, cfg.entry, post));
}

TEST(Cfg, ScopeEndTracksRaiiScopes) {
  const std::string code =
      "void f() {\n"
      "  {\n"
      "    std::lock_guard<std::mutex> g(mu_);\n"
      "    Use();\n"
      "  }\n"
      "  Post();\n"
      "}";
  const std::size_t body_end = code.rfind('}');
  const Cfg cfg = BuildCfg(code, code.find('{'), body_end);
  // The guard dies at the inner '}'; `Post()` lives to the body's '}'.
  EXPECT_EQ(ScopeEndAt(cfg, code.find("lock_guard"), body_end),
            code.find('}'));
  EXPECT_EQ(ScopeEndAt(cfg, code.find("Post"), body_end), body_end);
}

TEST(Cfg, ForwardDataflowUnionsFactsAtJoins) {
  const std::string code =
      "void f(bool c) {\n"
      "  if (c) { int t = 1; } else { int e = 2; }\n"
      "  int post = 3;\n"
      "}";
  const Cfg cfg = BuildBodyCfg(code);
  const int bt = BlockContaining(cfg, code.find("int t"));
  const int be = BlockContaining(cfg, code.find("int e"));
  const int bp = BlockContaining(cfg, code.find("int post"));
  const auto ins =
      ForwardDataflow(cfg, [&](int b, const std::set<int>& in) {
        std::set<int> out = in;
        if (b == bt) out.insert(1);
        if (b == be) out.insert(2);
        return out;
      });
  // A may-analysis joins both branches' facts before `post`.
  EXPECT_EQ(ins[static_cast<std::size_t>(bp)].count(1), 1u);
  EXPECT_EQ(ins[static_cast<std::size_t>(bp)].count(2), 1u);
  // Neither branch sees the other's fact on entry.
  EXPECT_EQ(ins[static_cast<std::size_t>(bt)].count(2), 0u);
  EXPECT_EQ(ins[static_cast<std::size_t>(be)].count(1), 0u);
}

TEST(Cfg, SerializationRoundTrips) {
  const std::string code =
      "void f(bool c) {\n"
      "  if (c) { return; }\n"
      "  while (c) { int i = 0; }\n"
      "}";
  const std::vector<Cfg> cfgs = {BuildBodyCfg(code)};
  std::string wire;
  SerializeCfgs(cfgs, &wire);
  std::vector<Cfg> parsed;
  std::size_t pos = 0;
  ASSERT_TRUE(ParseCfgs(wire, &pos, &parsed));
  EXPECT_EQ(pos, wire.size());
  ASSERT_EQ(parsed.size(), 1u);
  ASSERT_EQ(parsed[0].blocks.size(), cfgs[0].blocks.size());
  for (std::size_t b = 0; b < cfgs[0].blocks.size(); ++b) {
    EXPECT_EQ(parsed[0].blocks[b].succs, cfgs[0].blocks[b].succs);
    ASSERT_EQ(parsed[0].blocks[b].stmts.size(),
              cfgs[0].blocks[b].stmts.size());
    for (std::size_t s = 0; s < cfgs[0].blocks[b].stmts.size(); ++s) {
      EXPECT_EQ(parsed[0].blocks[b].stmts[s].begin,
                cfgs[0].blocks[b].stmts[s].begin);
      EXPECT_EQ(parsed[0].blocks[b].stmts[s].end,
                cfgs[0].blocks[b].stmts[s].end);
      EXPECT_EQ(parsed[0].blocks[b].stmts[s].scope_end,
                cfgs[0].blocks[b].stmts[s].scope_end);
    }
  }
}

// --- R11: actor-lock-order -------------------------------------------------

TEST(RuleLockOrder, FiresOnAnInconsistentAcquireOrder) {
  const auto findings =
      Lint({{"src/train/x.cc",
            "void TakeAB() {\n"
            "  std::lock_guard<std::mutex> a(mu_a_);\n"
            "  std::lock_guard<std::mutex> b(mu_b_);\n"
            "}\n"
            "void TakeBA() {\n"
            "  std::lock_guard<std::mutex> b(mu_b_);\n"
            "  std::lock_guard<std::mutex> a(mu_a_);\n"
            "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleLockOrder), 1);
  EXPECT_NE(findings[0].message.find("lock-order cycle"), std::string::npos);
  EXPECT_NE(findings[0].message.find("mu_a_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("mu_b_"), std::string::npos);
}

TEST(RuleLockOrder, FindsATwoHopInterproceduralCycle) {
  // Neither function sees both locks lexically: the cycle only exists
  // once held-sets propagate across the call graph via summaries.
  const auto findings =
      Lint({{"src/train/a.cc",
            "void LockB() { std::lock_guard<std::mutex> g(mu_b_); }\n"
            "void TakeAThenB() {\n"
            "  std::lock_guard<std::mutex> g(mu_a_);\n"
            "  LockB();\n"
            "}\n"},
           {"src/train/b.cc",
            "void LockA() { std::lock_guard<std::mutex> g(mu_a_); }\n"
            "void TakeBThenA() {\n"
            "  std::lock_guard<std::mutex> g(mu_b_);\n"
            "  LockA();\n"
            "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleLockOrder), 1);
  EXPECT_NE(findings[0].message.find("lock-order cycle"), std::string::npos);
}

TEST(RuleLockOrder, FiresWhenALockIsHeldAcrossAPublish) {
  const auto findings =
      Lint({{"src/train/x.cc",
            "void f(SnapshotStore& store, Snap s) {\n"
            "  std::lock_guard<std::mutex> g(mu_);\n"
            "  store.Publish(std::move(s));\n"
            "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleLockOrder), 1);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("held across Publish"),
            std::string::npos);
}

TEST(RuleLockOrder, FiresWhenACalleeReachesADispatch) {
  const auto findings =
      Lint({{"src/train/x.cc",
            "void Kick(ThreadPool* pool) { pool->Submit([] {}); }\n"
            "void f(ThreadPool* pool) {\n"
            "  std::lock_guard<std::mutex> g(mu_);\n"
            "  Kick(pool);\n"
            "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleLockOrder), 1);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("reaches a pool dispatch"),
            std::string::npos);
}

TEST(RuleLockOrder, ConsistentOrderAndScopedReleaseAreClean) {
  const auto findings =
      Lint({{"src/train/x.cc",
            // Same global order in both functions: edge a->b only.
            "void A1() {\n"
            "  std::lock_guard<std::mutex> a(mu_a_);\n"
            "  std::lock_guard<std::mutex> b(mu_b_);\n"
            "}\n"
            // scoped_lock acquires its whole set atomically: no
            // intra-event edges, deadlock-free by construction.
            "void A2() { std::scoped_lock l(mu_b_, mu_a_); }\n"
            // Brace-scoped guard released before the dispatch.
            "void f(ThreadPool* pool) {\n"
            "  {\n"
            "    std::lock_guard<std::mutex> g(mu_);\n"
            "    counter_ += 1;\n"
            "  }\n"
            "  pool->Submit([] {});\n"
            "}\n"}});
  EXPECT_EQ(CountRule(findings, kRuleLockOrder), 0);
}

TEST(RuleLockOrder, SuppressibleWithNolint) {
  const auto findings =
      Lint({{"src/train/x.cc",
            "void f(SnapshotStore& store, Snap s) {\n"
            "  std::lock_guard<std::mutex> g(mu_);\n"
            "  store.Publish(std::move(s));  // NOLINT(actor-lock-order)\n"
            "}\n"}});
  EXPECT_EQ(CountRule(findings, kRuleLockOrder), 0);
  EXPECT_EQ(CountRule(findings, kRuleStaleNolint), 0);
}

// --- R12: actor-memory-order -----------------------------------------------

TEST(RuleMemoryOrder, FiresOnNonRelaxedInsideAHogwildRegion) {
  const auto findings =
      Lint({{"src/embedding/x.cc",
            "void f(ThreadPool* pool) {\n"
            "  pool->ShardedRange(0, n, [&](int s) {\n"
            "    hits_.fetch_add(1);\n"
            "  });\n"
            "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleMemoryOrder), 1);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("inside a HOGWILD region"),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("relaxed-only"), std::string::npos);
}

TEST(RuleMemoryOrder, AllowsRelaxedInsideAHogwildRegion) {
  const auto findings =
      Lint({{"src/embedding/x.cc",
            "void f(ThreadPool* pool) {\n"
            "  pool->ShardedRange(0, n, [&](int s) {\n"
            "    hits_.fetch_add(1, std::memory_order_relaxed);\n"
            "  });\n"
            "}\n"}});
  EXPECT_EQ(CountRule(findings, kRuleMemoryOrder), 0);
}

TEST(RuleMemoryOrder, FiresOnDefaultedPublicationStore) {
  const auto findings =
      Lint({{"src/serve/x.cc",
            "std::atomic<std::shared_ptr<const ModelSnapshot>> slot_;\n"
            "void Install(std::shared_ptr<const ModelSnapshot> s) {\n"
            "  slot_.store(std::move(s));\n"
            "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleMemoryOrder), 1);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("snapshot publication slot"),
            std::string::npos);
  EXPECT_NE(findings[0].message.find("release-store"), std::string::npos);
}

TEST(RuleMemoryOrder, AllowsTheReleaseAcquirePublicationPair) {
  const auto findings =
      Lint({{"src/serve/x.cc",
            "std::atomic<std::shared_ptr<const ModelSnapshot>> slot_;\n"
            "void Install(std::shared_ptr<const ModelSnapshot> s) {\n"
            "  slot_.store(std::move(s), std::memory_order_release);\n"
            "}\n"
            "std::shared_ptr<const ModelSnapshot> Current() {\n"
            "  return slot_.load(std::memory_order_acquire);\n"
            "}\n"}});
  EXPECT_EQ(CountRule(findings, kRuleMemoryOrder), 0);
}

TEST(RuleMemoryOrder, FiresOnDefaultedSeqCstOnTheQueryPath) {
  const auto findings =
      Lint({{"src/serve/x.cc",
            "std::atomic<int> epoch_;\n"
            "struct QueryEngine {\n"
            "  int QueryByVector(int k) const {\n"
            "    return epoch_.load() + k;\n"
            "  }\n"
            "};\n"}});
  ASSERT_EQ(CountRule(findings, kRuleMemoryOrder), 1);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("on a hot path"), std::string::npos);
}

TEST(RuleMemoryOrder, DefaultedOrderOffTheHotPathIsClean) {
  const auto findings =
      Lint({{"src/serve/x.cc",
            // Defaulted seq_cst in cold code is the readable choice.
            "std::atomic<int> epoch_;\n"
            "void Cold() { epoch_.store(1); }\n"
            // load() on a non-atomic receiver is not an atomic op at all.
            "void Config(Store& s) { s.load(path_); }\n"}});
  EXPECT_EQ(CountRule(findings, kRuleMemoryOrder), 0);
}

TEST(RuleMemoryOrder, SuppressibleWithNolint) {
  const auto findings = Lint(
      {{"src/embedding/x.cc",
        "void f(ThreadPool* pool) {\n"
        "  pool->ShardedRange(0, n, [&](int s) {\n"
        "    hits_.fetch_add(1);  // NOLINT(actor-memory-order)\n"
        "  });\n"
        "}\n"}});
  EXPECT_EQ(CountRule(findings, kRuleMemoryOrder), 0);
  EXPECT_EQ(CountRule(findings, kRuleStaleNolint), 0);
}

// --- R13: actor-snapshot-escape --------------------------------------------

TEST(RuleSnapshotEscape, FiresOnMemberEscapeThroughAnIntermediateLocal) {
  // R9 allows the plain-local `.get()`; only the flow-sensitive pass sees
  // the local then reach a member.
  const auto findings =
      Lint({{"src/serve/x.cc",
            "void f(SnapshotStore& store) {\n"
            "  auto snap = store.Acquire();\n"
            "  const ModelSnapshot* p = snap.get();\n"
            "  snap_ = p;\n"
            "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleSnapshotEscape), 1);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("escapes into a member"),
            std::string::npos);
  EXPECT_EQ(CountRule(findings, kRuleSnapshotLifetime), 0)
      << "R9 and R13 must not double-report the same flow";
}

TEST(RuleSnapshotEscape, FiresOnReturningTheRawPointer) {
  const auto findings =
      Lint({{"src/serve/x.cc",
            "const ModelSnapshot* Direct(SnapshotStore& store) {\n"
            "  auto snap = store.Acquire();\n"
            "  return snap.get();\n"
            "}\n"
            "const ModelSnapshot* ViaLocal(SnapshotStore& store) {\n"
            "  auto snap = store.Acquire();\n"
            "  const ModelSnapshot* p = snap.get();\n"
            "  return p;\n"
            "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleSnapshotEscape), 2);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("returning snap.get()"),
            std::string::npos);
  EXPECT_EQ(findings[1].line, 8);
  EXPECT_NE(findings[1].message.find("returned to the caller"),
            std::string::npos);
}

TEST(RuleSnapshotEscape, FiresOnInsertIntoAMemberContainer) {
  const auto findings =
      Lint({{"src/serve/x.cc",
            "void f(SnapshotStore& store) {\n"
            "  auto snap = store.Acquire();\n"
            "  const ModelSnapshot* p = snap.get();\n"
            "  cache_.push_back(p);\n"
            "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleSnapshotEscape), 1);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("long-lived container"),
            std::string::npos);
}

TEST(RuleSnapshotEscape, FiresOnEscapesAcrossTheDispatchBoundary) {
  const auto findings =
      Lint({{"src/serve/x.cc",
            // A raw local crossing into a task: no `.get()` inside the
            // span, so R9 is blind to it.
            "void Raw(SnapshotStore& store, ThreadPool* pool) {\n"
            "  auto snap = store.Acquire();\n"
            "  const ModelSnapshot* p = snap.get();\n"
            "  pool->Submit([p] { Score(*p); });\n"
            "}\n"
            // A by-ref capture of the shared_ptr into an async task: the
            // task can outlive the frame that owns `snap`.
            "void Ref(SnapshotStore& store, ThreadPool* pool) {\n"
            "  auto snap = store.Acquire();\n"
            "  pool->Submit([&] { Score(*snap); });\n"
            "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleSnapshotEscape), 2);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("crosses a pool-dispatch boundary"),
            std::string::npos);
  EXPECT_EQ(findings[1].line, 8);
  EXPECT_NE(findings[1].message.find("captured by reference"),
            std::string::npos);
  EXPECT_EQ(CountRule(findings, kRuleSnapshotLifetime), 0);
}

TEST(RuleSnapshotEscape, AllowsSanctionedFlows) {
  const auto findings =
      Lint({{"src/serve/x.cc",
            "void f(SnapshotStore& store, ThreadPool* pool) {\n"
            "  auto snap = store.Acquire();\n"
            "  snapshot_ = snap;\n"  // member pin keeps the shared_ptr
            "  pool->ShardedRange(0, n, [&](int s) {\n"
            "    Score(*snap);\n"  // synchronous: workers join before return
            "  });\n"
            "  const ModelSnapshot* p = snap.get();\n"
            "  std::vector<const ModelSnapshot*> tmp;\n"
            "  tmp.push_back(p);\n"  // local container dies with the frame
            "}\n"}});
  EXPECT_EQ(CountRule(findings, kRuleSnapshotEscape), 0);
  EXPECT_EQ(CountRule(findings, kRuleSnapshotLifetime), 0);
}

TEST(RuleSnapshotEscape, AssignmentKillsTheRawFact) {
  // Strong update: after `p` is overwritten it no longer aliases the
  // snapshot, so the member store is fine.
  const auto findings =
      Lint({{"src/serve/x.cc",
            "void f(SnapshotStore& store) {\n"
            "  auto snap = store.Acquire();\n"
            "  const ModelSnapshot* p = snap.get();\n"
            "  p = nullptr;\n"
            "  snap_ = p;\n"
            "}\n"}});
  EXPECT_EQ(CountRule(findings, kRuleSnapshotEscape), 0);
}

TEST(RuleSnapshotEscape, SuppressibleWithNolint) {
  const auto findings =
      Lint({{"src/serve/x.cc",
            "void f(SnapshotStore& store) {\n"
            "  auto snap = store.Acquire();\n"
            "  const ModelSnapshot* p = snap.get();\n"
            "  snap_ = p;  // NOLINT(actor-snapshot-escape)\n"
            "}\n"}});
  EXPECT_EQ(CountRule(findings, kRuleSnapshotEscape), 0);
  EXPECT_EQ(CountRule(findings, kRuleStaleNolint), 0);
}

// --- Sharded subsystem (src/shard/) coverage --------------------------------

TEST(ShardLint, HogwildPropagatesThroughPerShardDispatch) {
  // src/shard/ is a HOGWILD auto-detect dir: the per-shard trainer
  // dispatch seeds the region with zero annotations, and the raw row
  // write inside the helper fires one hop away.
  const auto findings = Lint({{"src/shard/x.cc",
                              "void TrainShardEpoch(M& m, int s) {\n"
                              "  m.row(u)[0] += 1.0f;\n"
                              "}\n"
                              "void TrainBatchSharded(M& m) {\n"
                              "  pool_->ParallelFor(0, shards_,"
                              " [&](std::size_t s) {\n"
                              "    TrainShardEpoch(m,"
                              " static_cast<int>(s));\n"
                              "  });\n"
                              "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleHogwild), 1);
  EXPECT_EQ(findings[0].file, "src/shard/x.cc");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(ShardLint, OwnedShardStateWritesAreClean) {
  // The sharded trainer's write discipline needs no manual annotations:
  // per-shard subscripted dirty slots, the threaded dirty parameter, and
  // shard-local scratch are all recognized as single-writer shapes.
  const auto findings = Lint({{"src/shard/x.cc",
                              "void Epoch(DirtyRowSet* dirty) {\n"
                              "  dirty->Mark(u);\n"
                              "}\n"
                              "void Train() {\n"
                              "  pool_->ParallelFor(0, shards_,"
                              " [&](std::size_t s) {\n"
                              "    owned_dirty_[s].Mark(u);\n"
                              "    Epoch(&owned_dirty_[s]);\n"
                              "  });\n"
                              "}\n"}});
  EXPECT_EQ(CountRule(findings, kRuleHogwild), 0);
}

TEST(ShardLint, ShardedQueryRootsMayAllocateButNotLock) {
  // ShardedQueryEngine's Query* methods are scoring-path roots exactly
  // like the flat engine's: scratch allocation at the boundary is fine,
  // taking a lock there still blocks the read path.
  const auto findings = Lint({{"src/shard/q.cc",
                              "struct ShardedQueryEngine {\n"
                              "  int QueryScatter(int k) const {\n"
                              "    std::vector<int> merged(k);\n"
                              "    std::lock_guard<std::mutex> g(mu_);\n"
                              "    return merged[0];\n"
                              "  }\n"
                              "};\n"}});
  ASSERT_EQ(CountRule(findings, kRuleHotPath), 1);
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("QueryEngine scoring path"),
            std::string::npos);
}

TEST(ShardLint, HelpersReachableFromShardedRootsStayAllocFree) {
  // Non-root helpers called from a sharded root join the hot path and may
  // not allocate — only the Query* boundary itself gets that license.
  const auto findings = Lint({{"src/shard/q.cc",
                              "struct ShardedQueryEngine {\n"
                              "  int QueryByVector(int k) const {\n"
                              "    return MergeHeads(k);\n"
                              "  }\n"
                              "};\n"
                              "int MergeHeads(int k) {\n"
                              "  std::vector<int> tmp(k);\n"
                              "  return tmp[0];\n"
                              "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleHotPath), 1);
  EXPECT_EQ(findings[0].line, 7);
}

TEST(ShardLint, CompositeAcquireLifetimeRulesApply) {
  // R9 in a src/shard path, composite-store shape: `.get()` on the
  // Acquire() temporary dies with the expression.
  const auto findings =
      Lint({{"src/shard/x.cc",
            "void f(ShardedSnapshotStore& store) {\n"
            "  const ShardedModelSnapshot* p = store.Acquire().get();\n"
            "  Use(p);\n"
            "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleSnapshotLifetime), 1);
  EXPECT_EQ(findings[0].line, 2);
}

TEST(ShardLint, CompositeAccessorEscapesAreCaught) {
  // R13 tracks the composite accessor too: a raw pointer derived from
  // CurrentShardedSnapshot() escaping into a member outlives nothing.
  const auto findings =
      Lint({{"src/shard/x.cc",
            "void f(const OnlineActor& actor) {\n"
            "  auto snap = actor.CurrentShardedSnapshot();\n"
            "  const ShardedModelSnapshot* p = snap.get();\n"
            "  snap_ = p;\n"
            "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleSnapshotEscape), 1);
  EXPECT_EQ(findings[0].line, 4);
}

TEST(ShardLint, LockHeldAcrossCompositePublishFires) {
  // The composite publish is the same single-pointer-swap boundary as the
  // flat one: holding a lock across it serializes readers behind the
  // writer, so R11's publish check applies unchanged in src/shard paths.
  const auto findings =
      Lint({{"src/shard/x.cc",
            "void f(ShardedSnapshotStore& store, Composite c) {\n"
            "  std::lock_guard<std::mutex> g(mu_);\n"
            "  store.Publish(std::move(c));\n"
            "}\n"}});
  ASSERT_EQ(CountRule(findings, kRuleLockOrder), 1);
  EXPECT_EQ(findings[0].line, 3);
  EXPECT_NE(findings[0].message.find("held across Publish"),
            std::string::npos);
}

// --- Cache stamping ---------------------------------------------------------

TEST(CacheStamp, MismatchInvalidatesTheChangedOnlyBaseline) {
  namespace fs = std::filesystem;
  const fs::path cache = fs::temp_directory_path() / "actor_lint_stamp_test";
  fs::remove(cache);
  LintConfig config;
  config.compile_headers = false;
  config.symbol_cache_path = cache.string();
  config.cache_stamp = "r3-aaaa";
  const FileEntry dirty{"src/b.cc", "int b = rand();\n"};
  auto findings = LintRepo({dirty}, config);
  EXPECT_EQ(CountRule(findings, kRuleRng), 1);

  // Simulate an older analyzer that did not know the rule: flip the
  // file's cached clean flag by hand (stamp still matches).
  std::string cached;
  {
    std::ifstream in(cache);
    std::ostringstream buf;
    buf << in.rdbuf();
    cached = buf.str();
  }
  const std::size_t flag = cached.find(" 0 src/b.cc");
  ASSERT_NE(flag, std::string::npos);
  cached[flag + 1] = '1';
  std::ofstream(cache, std::ios::trunc) << cached;

  // Same stamp: --changed-only trusts the (doctored) baseline — the
  // unchanged, "clean" file is skipped and the finding is masked.
  config.changed_only = true;
  findings = LintRepo({dirty}, config);
  EXPECT_EQ(CountRule(findings, kRuleRng), 0);

  // A stamp change (rule-set bump or analyzer rebuild) misses the whole
  // cache, so the masked finding resurfaces.
  config.cache_stamp = "r4-bbbb";
  findings = LintRepo({dirty}, config);
  EXPECT_EQ(CountRule(findings, kRuleRng), 1);
  fs::remove(cache);
}

// --- Mechanical fixes (--fix) ----------------------------------------------

TEST(Fixes, StaleNolintEntryCarriesAMinimalRewrite) {
  const std::string src =
      "int a = rand();  // NOLINT(actor-rng,actor-thread)\n";
  const auto findings = Lint({{"src/x.cc", src}});
  ASSERT_EQ(CountRule(findings, kRuleStaleNolint), 1);
  ASSERT_TRUE(findings[0].has_fix);
  // The live entry survives; only the dead one is dropped.
  EXPECT_EQ(ApplyFixes("src/x.cc", src, findings),
            "int a = rand();  // NOLINT(actor-rng)\n");
  // Fixes never leak into other files.
  EXPECT_EQ(ApplyFixes("src/other.cc", src, findings), src);
}

TEST(Fixes, FullyStaleNolintCommentIsDeletedWholesale) {
  const std::string src = "int clean = 0;  // NOLINT(actor-thread)\n";
  const auto findings = Lint({{"src/x.cc", src}});
  ASSERT_EQ(CountRule(findings, kRuleStaleNolint), 1);
  ASSERT_TRUE(findings[0].has_fix);
  EXPECT_EQ(ApplyFixes("src/x.cc", src, findings), "int clean = 0;\n");
}

TEST(Fixes, RedundantAnnotationFixDeletesTheCommentLine) {
  const std::string src =
      "void f(M& m) {\n"
      "  pool->ShardedRange(0, n, [&](int s) {\n"
      "    Helper(m);\n"
      "  });\n"
      "}\n"
      "// actor-lint: hogwild-region\n"
      "void Helper(M& m) {\n"
      "  RelaxedStore(&m.row(u)[0], 1.0f);\n"
      "}\n";
  const auto findings = Lint({{"src/embedding/x.cc", src}});
  ASSERT_EQ(CountRule(findings, kRuleHogwild), 1);
  ASSERT_TRUE(findings[0].has_fix);
  const std::string fixed = ApplyFixes("src/embedding/x.cc", src, findings);
  EXPECT_EQ(fixed.find("hogwild-region"), std::string::npos);
  EXPECT_NE(fixed.find("void Helper"), std::string::npos);
}

// --- Symbol cache + --changed-only -----------------------------------------

TEST(ChangedOnly, SkipsCleanFilesAndNeverMasksViolations) {
  namespace fs = std::filesystem;
  const fs::path cache = fs::temp_directory_path() / "actor_lint_sym_test";
  fs::remove(cache);
  LintConfig config;
  config.compile_headers = false;
  config.symbol_cache_path = cache.string();
  const FileEntry clean{"src/a.cc", "int A() { return 1; }\n"};
  const FileEntry dirty{"src/b.cc", "int b = rand();\n"};
  // Baseline run records per-file hashes and clean flags.
  auto findings = LintRepo({clean, dirty}, config);
  EXPECT_EQ(CountRule(findings, kRuleRng), 1);
  // Changed-only rerun: nothing changed, but b was not clean — still
  // reported (a finding can never hide behind an unchanged hash).
  config.changed_only = true;
  findings = LintRepo({clean, dirty}, config);
  EXPECT_EQ(CountRule(findings, kRuleRng), 1);
  // Fixing b re-lints the changed file; the tree goes clean.
  const FileEntry fixed{"src/b.cc", "int B() { return 2; }\n"};
  findings = LintRepo({clean, fixed}, config);
  EXPECT_EQ(findings.size(), 0u);
  // Fully warm rerun: everything is skipped and the tree stays clean.
  findings = LintRepo({clean, fixed}, config);
  EXPECT_EQ(findings.size(), 0u);
  // A fresh violation in a previously clean file is caught via its hash.
  const FileEntry regressed{"src/a.cc", "int A() { return rand(); }\n"};
  findings = LintRepo({regressed, fixed}, config);
  EXPECT_EQ(CountRule(findings, kRuleRng), 1);
  fs::remove(cache);
}

// --- Parallel R5a cold start ------------------------------------------------

TEST(RuleHeaderSelf, ParallelCompileAttributesEveryBrokenHeader) {
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() / "actor_lint_par_test";
  fs::create_directories(root / "src");
  const auto write = [&root](const char* rel, const char* text) {
    std::ofstream(root / rel) << text;
  };
  write("src/good1.h", "#include <vector>\ninline int G1() { return 1; }\n");
  write("src/good2.h", "#include <string>\ninline int G2() { return 2; }\n");
  write("src/bad1.h", "inline int B1() { return MissingOne(); }\n");
  write("src/bad2.h", "inline int B2() { return MissingTwo(); }\n");

  std::vector<FileEntry> files = {
      {"src/good1.h", "#include <vector>\ninline int G1() { return 1; }\n"},
      {"src/good2.h", "#include <string>\ninline int G2() { return 2; }\n"},
      {"src/bad1.h", "inline int B1() { return MissingOne(); }\n"},
      {"src/bad2.h", "inline int B2() { return MissingTwo(); }\n"}};
  LintConfig config;
  config.root = root.string();
  config.compile_headers = true;
  config.compile_flags = {"-std=c++20"};
  config.compile_jobs = 2;
  const auto findings = LintRepo(files, config);
  // Both broken headers attributed, in deterministic sorted order, with
  // the batched probe re-run per header inside the owning worker.
  ASSERT_EQ(CountRule(findings, kRuleHeaderSelf), 2);
  EXPECT_EQ(findings[0].file, "src/bad1.h");
  EXPECT_EQ(findings[1].file, "src/bad2.h");
  fs::remove_all(root);
}

// --- Call-graph dump --------------------------------------------------------

TEST(CallGraphDump, EmitsDotWithHogwildColoring) {
  const std::string dot =
      DumpCallGraph({{"src/embedding/x.cc",
                      "void Helper(M& m) {\n"
                      "  RelaxedStore(&m.row(u)[0], 1.0f);\n"
                      "}\n"
                      "void f(M& m) {\n"
                      "  pool->ShardedRange(0, n, [&](int s) {\n"
                      "    Helper(m);\n"
                      "  });\n"
                      "}\n"}});
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("Helper"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);      // f -> Helper edge
  EXPECT_NE(dot.find("salmon"), std::string::npos);  // hogwild fill color
}

// --- Output formats --------------------------------------------------------

TEST(Output, TextAndJsonFormats) {
  const std::vector<Finding> findings = {
      {"src/x.cc", 3, kRuleRng, "message with \"quotes\""}};
  EXPECT_EQ(FormatFindingsText(findings),
            "src/x.cc:3: [actor-rng] message with \"quotes\"\n");
  const std::string json = FormatFindingsJson(findings);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(json.find("\\\"quotes\\\""), std::string::npos);
  EXPECT_EQ(FormatFindingsJson({}), "[\n]\n");
}

TEST(Output, SarifFormatDeclaresRulesAndLocations) {
  const std::vector<Finding> findings = {
      {"src/x.cc", 3, kRuleRng, "message with \"quotes\""},
      {"src/y.cc", 0, kRuleThread, "whole-file finding"}};
  const std::string sarif = FormatFindingsSarif(findings);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"actor-lint\""), std::string::npos);
  // Every rule is declared in the driver, even without findings.
  EXPECT_NE(sarif.find("{\"id\": \"actor-lock-order\"}"), std::string::npos);
  EXPECT_NE(sarif.find("{\"id\": \"actor-memory-order\"}"),
            std::string::npos);
  EXPECT_NE(sarif.find("{\"id\": \"actor-snapshot-escape\"}"),
            std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"actor-rng\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/x.cc\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
  // Line 0 findings are clamped to 1 (SARIF lines are 1-based).
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
  EXPECT_NE(sarif.find("\\\"quotes\\\""), std::string::npos);
  // An empty log is still a valid single-run document.
  EXPECT_NE(FormatFindingsSarif({}).find("\"results\": ["),
            std::string::npos);
}

TEST(Output, FindingsAreSortedAndDeterministic) {
  const auto findings = Lint({{"src/b.cc", "int a = rand();\n"},
                             {"src/a.cc", "std::thread t;\nint b = rand();\n"}});
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].file, "src/a.cc");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[1].file, "src/a.cc");
  EXPECT_EQ(findings[1].line, 2);
  EXPECT_EQ(findings[2].file, "src/b.cc");
}

}  // namespace
}  // namespace actor_lint
