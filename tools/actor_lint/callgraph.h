#ifndef ACTOR_TOOLS_ACTOR_LINT_CALLGRAPH_H_
#define ACTOR_TOOLS_ACTOR_LINT_CALLGRAPH_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "lexer.h"
#include "symbols.h"

namespace actor_lint {

/// Repo-wide call graph over the per-file symbol indexes. Resolution is
/// name-based and conservative: a call edge exists whenever a call site
/// *could* target a symbol (same name, compatible arity, member calls
/// match methods, explicit `X::` qualification matches the class — with
/// `using A = B;` type aliases canonicalized). `std::`-qualified calls
/// never resolve into the repo.
class CallGraph {
 public:
  struct Node {
    int file = -1;  // index into the files()/symbols() vectors
    int sym = -1;   // index into symbols()[file].symbols
  };

  CallGraph(const std::vector<LexedFile>* files,
            const std::vector<FileSymbols>* symbols);

  const std::vector<Node>& nodes() const { return nodes_; }
  const std::vector<LexedFile>& files() const { return *files_; }
  const Symbol& Sym(int node) const {
    return (*symbols_)[nodes_[node].file].symbols[nodes_[node].sym];
  }
  const LexedFile& File(int node) const {
    return (*files_)[nodes_[node].file];
  }
  int FileIndex(int node) const { return nodes_[node].file; }

  /// Resolved callee node ids for one call site (deduplicated, sorted).
  std::vector<int> Resolve(const CallSite& call) const;

  /// Resolved callees of every call site in `calls`.
  std::vector<int> ResolveAll(const std::vector<CallSite>& calls) const;

  /// Canonical type name through the `using A = B;` alias map.
  const std::string& CanonicalType(const std::string& name) const;

 private:
  const std::vector<LexedFile>* files_;
  const std::vector<FileSymbols>* symbols_;
  std::vector<Node> nodes_;
  std::unordered_map<std::string, std::vector<int>> by_name_;
  std::unordered_map<std::string, std::string> aliases_;
};

CallGraph BuildCallGraph(const std::vector<LexedFile>& files,
                         const std::vector<FileSymbols>& symbols);

/// A byte span of one file's `code` (file is an index into the lexed set).
struct SrcSpan {
  int file = -1;
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// HOGWILD context, derived interprocedurally. Roots are the lambda
/// literals passed to ShardedRange/ParallelFor/Submit in src/embedding/ +
/// src/core/ (dispatch_spans) and lambda variables passed to a dispatch by
/// name (dispatch_seed_nodes). `hogwild_auto` marks every symbol reachable
/// from those roots through the call graph; `hogwild` additionally
/// propagates from manual `// actor-lint: hogwild-region` annotation spans
/// (the escape hatch for regions the automation cannot see).
struct HogwildInfo {
  std::vector<SrcSpan> dispatch_spans;
  std::vector<int> dispatch_seed_nodes;
  std::vector<char> hogwild_auto;  // per node
  std::vector<char> hogwild;       // per node
};

HogwildInfo ComputeHogwild(const CallGraph& g,
                           const std::vector<SrcSpan>& annotation_spans);

/// R10 reachability. Roots (region boundaries that may own scratch
/// allocation but must not block): HOGWILD dispatch/annotation spans, the
/// bodies of dispatched lambda variables, and the `Query*` methods of
/// QueryEngine (or any `using` alias of it). `checked`
/// marks every non-root symbol reachable from a root: those bodies must be
/// free of mutexes, IO, *and* heap allocation.
struct HotPathInfo {
  std::vector<int> query_roots;     // node ids
  std::vector<char> root;           // per node: is a boundary body
  std::vector<char> checked;        // per node
  std::vector<char> from_hogwild;   // per node: reached from HOGWILD roots
  std::vector<char> from_query;     // per node: reached from scoring roots
};

HotPathInfo ComputeHotPaths(const CallGraph& g, const HogwildInfo& hw,
                            const std::vector<SrcSpan>& annotation_spans);

/// Graphviz dump of the resolved graph with the HOGWILD / hot-path /
/// scoring-root classification as node colors. Deterministic output.
std::string DumpCallGraphDot(const CallGraph& g, const HogwildInfo& hw,
                             const HotPathInfo& hot);

}  // namespace actor_lint

#endif  // ACTOR_TOOLS_ACTOR_LINT_CALLGRAPH_H_
