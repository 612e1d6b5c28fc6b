#include "callgraph.h"

#include <algorithm>
#include <deque>
#include <set>

namespace actor_lint {

namespace {

/// Collects `using A = B;` type aliases across the file set, so a method
/// defined (or called) through an alias — `Searcher::QueryByVector` where
/// `using Searcher = QueryEngine;` — matches the aliased
/// class. Only the simple single-identifier RHS form is recorded (template
/// aliases resolve to their base identifier).
std::unordered_map<std::string, std::string> CollectAliases(
    const std::vector<LexedFile>& files) {
  std::unordered_map<std::string, std::string> aliases;
  for (const LexedFile& f : files) {
    const std::string& code = f.code;
    std::size_t pos = 0;
    while ((pos = FindToken(code, pos, "using")) != kNpos) {
      std::size_t j = SkipWs(code, pos + 5);
      pos += 5;
      std::size_t nb = j;
      while (j < code.size() && IsIdentChar(code[j])) ++j;
      if (j == nb) continue;
      const std::string lhs = code.substr(nb, j - nb);
      if (lhs == "namespace") continue;
      j = SkipWs(code, j);
      if (j >= code.size() || code[j] != '=') continue;
      j = SkipWs(code, j + 1);
      // RHS: last identifier segment before `<` / `;` (skips `const`,
      // nested `ns::` qualification).
      std::string rhs;
      while (j < code.size() && code[j] != ';' && code[j] != '<') {
        if (IsIdentChar(code[j])) {
          std::size_t e = j;
          while (e < code.size() && IsIdentChar(code[e])) ++e;
          rhs = code.substr(j, e - j);
          j = e;
        } else {
          ++j;
        }
      }
      if (!rhs.empty() && rhs != "const" && lhs != rhs) {
        aliases.emplace(lhs, rhs);
      }
    }
  }
  return aliases;
}

}  // namespace

CallGraph::CallGraph(const std::vector<LexedFile>* files,
                     const std::vector<FileSymbols>* symbols)
    : files_(files), symbols_(symbols) {
  for (int fi = 0; fi < static_cast<int>(symbols->size()); ++fi) {
    const FileSymbols& fs = (*symbols)[fi];
    for (int si = 0; si < static_cast<int>(fs.symbols.size()); ++si) {
      by_name_[fs.symbols[si].name].push_back(
          static_cast<int>(nodes_.size()));
      nodes_.push_back({fi, si});
    }
  }
  aliases_ = CollectAliases(*files);
}

const std::string& CallGraph::CanonicalType(const std::string& name) const {
  const std::string* cur = &name;
  for (int hops = 0; hops < 8; ++hops) {
    auto it = aliases_.find(*cur);
    if (it == aliases_.end()) break;
    cur = &it->second;
  }
  return *cur;
}

std::vector<int> CallGraph::Resolve(const CallSite& call) const {
  std::vector<int> out;
  if (call.qualifier == "std") return out;
  auto it = by_name_.find(call.name);
  if (it == by_name_.end()) return out;
  const std::string call_qual =
      call.qualifier.empty() ? std::string() : CanonicalType(call.qualifier);
  for (const int node : it->second) {
    const Symbol& s = Sym(node);
    // Arity: the call's argument count must be satisfiable.
    if (call.args < s.min_args) continue;
    if (s.max_args >= 0 && call.args > s.max_args) continue;
    if (!call_qual.empty()) {
      // `X::name(...)`: matches X's methods, or a free function when X is
      // actually a namespace (lexically indistinguishable — keep both).
      const std::string sym_qual = CanonicalType(s.qualifier);
      if (s.method ? sym_qual != call_qual : !s.qualifier.empty()) continue;
      if (s.lambda_var) continue;
    } else if (call.member) {
      // `x.name(...)`: only methods can be the target.
      if (!s.method) continue;
    }
    out.push_back(node);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<int> CallGraph::ResolveAll(
    const std::vector<CallSite>& calls) const {
  std::vector<int> out;
  for (const CallSite& c : calls) {
    const std::vector<int> targets = Resolve(c);
    out.insert(out.end(), targets.begin(), targets.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

CallGraph BuildCallGraph(const std::vector<LexedFile>& files,
                         const std::vector<FileSymbols>& symbols) {
  return CallGraph(&files, &symbols);
}

namespace {

/// True for files where pool-dispatch lambdas are auto-detected as HOGWILD
/// regions (mirrors the per-file rule the v1 analyzer applied).
bool AutoDetectDir(const std::string& path) {
  return StartsWith(path, "src/embedding/") || StartsWith(path, "src/core/");
}

/// Finds every ShardedRange/ParallelFor/Submit call in `code` and reports
/// each argument that is a lambda literal (span of its body) or a plain
/// identifier (potential lambda variable, resolved by the caller).
struct DispatchArg {
  std::size_t body_begin = 0;  // lambda literal body '{' (kNpos if ident)
  std::size_t body_end = 0;
  std::string ident;  // non-empty for plain-identifier args
};

std::vector<DispatchArg> DispatchArgs(const std::string& code) {
  std::vector<DispatchArg> out;
  for (const char* dispatch : {"ShardedRange", "ParallelFor", "Submit"}) {
    std::size_t pos = 0;
    while ((pos = FindToken(code, pos, dispatch)) != kNpos) {
      const std::size_t open =
          SkipWs(code, pos + std::char_traits<char>::length(dispatch));
      ++pos;
      if (open >= code.size() || code[open] != '(') continue;
      std::vector<std::pair<std::size_t, std::size_t>> args;
      if (!SplitCallArgs(code, open, &args)) continue;
      for (const auto& [ab, ae] : args) {
        std::size_t b = SkipWs(code, ab);
        if (b >= ae) continue;
        if (code[b] == '&') b = SkipWs(code, b + 1);  // `&fn` / `&lambda`
        if (code[b] == '[') {
          // Lambda literal: `[caps](params) ... { body }`.
          const std::size_t intro_end = MatchForward(code, b);
          if (intro_end == kNpos || intro_end > ae) continue;
          const std::size_t body = code.find('{', intro_end);
          if (body == kNpos || body > ae) continue;
          const std::size_t body_end = MatchForward(code, body);
          if (body_end == kNpos) continue;
          out.push_back({body, body_end, ""});
          continue;
        }
        // Plain identifier argument (a lambda stored in a variable).
        std::size_t e = b;
        while (e < ae && IsIdentChar(code[e])) ++e;
        if (e == b || SkipWs(code, e) < ae) continue;  // not a bare ident
        out.push_back({kNpos, kNpos, code.substr(b, e - b)});
      }
    }
  }
  return out;
}

/// BFS over call edges from `seed_nodes` plus the calls inside
/// `seed_spans`, marking every reached node defined under src/. Seeds are
/// marked too.
std::vector<char> Reach(const CallGraph& g,
                        const std::vector<int>& seed_nodes,
                        const std::vector<SrcSpan>& seed_spans,
                        const std::vector<LexedFile>& files) {
  std::vector<char> mark(g.nodes().size(), 0);
  std::deque<int> queue;
  auto push = [&](int node) {
    if (mark[node]) return;
    if (!StartsWith(g.File(node).path, "src/")) return;
    mark[node] = 1;
    queue.push_back(node);
  };
  for (const int n : seed_nodes) push(n);
  for (const SrcSpan& span : seed_spans) {
    const LexedFile& f = files[static_cast<std::size_t>(span.file)];
    for (const int n :
         g.ResolveAll(ExtractCallsInSpan(f.code, span.begin, span.end))) {
      push(n);
    }
  }
  while (!queue.empty()) {
    const int node = queue.front();
    queue.pop_front();
    for (const int callee : g.ResolveAll(g.Sym(node).calls)) push(callee);
  }
  return mark;
}

}  // namespace

HogwildInfo ComputeHogwild(const CallGraph& g,
                           const std::vector<SrcSpan>& annotation_spans) {
  HogwildInfo info;
  const std::vector<LexedFile>& files = g.files();

  // Dispatch roots: lambda literals become region spans; bare-identifier
  // arguments resolve to same-file lambda variables (or free functions)
  // whose bodies become region roots.
  for (int fi = 0; fi < static_cast<int>(files.size()); ++fi) {
    const LexedFile& f = files[static_cast<std::size_t>(fi)];
    if (!AutoDetectDir(f.path)) continue;
    for (const DispatchArg& arg : DispatchArgs(f.code)) {
      if (arg.ident.empty()) {
        info.dispatch_spans.push_back({fi, arg.body_begin, arg.body_end});
        continue;
      }
      for (int n = 0; n < static_cast<int>(g.nodes().size()); ++n) {
        if (g.FileIndex(n) != fi) continue;
        const Symbol& s = g.Sym(n);
        if (s.name == arg.ident && !s.method) {
          info.dispatch_seed_nodes.push_back(n);
        }
      }
    }
  }
  std::sort(info.dispatch_seed_nodes.begin(), info.dispatch_seed_nodes.end());
  info.dispatch_seed_nodes.erase(
      std::unique(info.dispatch_seed_nodes.begin(),
                  info.dispatch_seed_nodes.end()),
      info.dispatch_seed_nodes.end());

  info.hogwild_auto = Reach(g, info.dispatch_seed_nodes, info.dispatch_spans,
                            files);
  std::vector<SrcSpan> all_spans = info.dispatch_spans;
  all_spans.insert(all_spans.end(), annotation_spans.begin(),
                   annotation_spans.end());
  info.hogwild = Reach(g, info.dispatch_seed_nodes, all_spans, files);
  return info;
}

HotPathInfo ComputeHotPaths(const CallGraph& g, const HogwildInfo& hw,
                            const std::vector<SrcSpan>& annotation_spans) {
  HotPathInfo info;
  const std::size_t n_nodes = g.nodes().size();
  info.root.assign(n_nodes, 0);

  // Scoring roots: Query* methods of QueryEngine (through any alias). The
  // Query* bodies may allocate per-request scratch but must never block,
  // and everything reachable beneath them stays allocation-free.
  for (int n = 0; n < static_cast<int>(n_nodes); ++n) {
    const Symbol& s = g.Sym(n);
    if (!s.method || !StartsWith(s.name, "Query")) continue;
    const std::string& canon = g.CanonicalType(s.qualifier);
    if (canon != "QueryEngine") continue;
    info.query_roots.push_back(n);
    info.root[n] = 1;
  }
  // HOGWILD boundary bodies: dispatched lambda variables are the region
  // itself, not a helper reached from one.
  for (const int n : hw.dispatch_seed_nodes) info.root[n] = 1;

  // Reachability, tracked separately per provenance for the messages.
  std::vector<SrcSpan> hogwild_spans = hw.dispatch_spans;
  hogwild_spans.insert(hogwild_spans.end(), annotation_spans.begin(),
                       annotation_spans.end());
  info.from_hogwild =
      Reach(g, hw.dispatch_seed_nodes, hogwild_spans, g.files());
  info.from_query = Reach(g, info.query_roots, {}, g.files());

  info.checked.assign(n_nodes, 0);
  for (std::size_t i = 0; i < n_nodes; ++i) {
    if (info.root[i]) continue;
    if (info.from_hogwild[i] || info.from_query[i]) info.checked[i] = 1;
  }
  return info;
}

std::string DumpCallGraphDot(const CallGraph& g, const HogwildInfo& hw,
                             const HotPathInfo& hot) {
  std::string out = "digraph actor_lint {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  // Stable node order: by (file path, line).
  std::vector<int> order(g.nodes().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const Symbol& sa = g.Sym(a);
    const Symbol& sb = g.Sym(b);
    return std::tie(g.File(a).path, sa.line, sa.name) <
           std::tie(g.File(b).path, sb.line, sb.name);
  });
  auto node_id = [&](int n) { return "n" + std::to_string(n); };
  for (const int n : order) {
    const Symbol& s = g.Sym(n);
    std::string label = s.qualifier.empty() ? s.name : s.qualifier + "::" + s.name;
    if (s.lambda_var) label += " [lambda]";
    label += "\\n" + g.File(n).path + ":" + std::to_string(s.line);
    std::string color;
    const bool is_query_root =
        std::find(hot.query_roots.begin(), hot.query_roots.end(), n) !=
        hot.query_roots.end();
    if (is_query_root) {
      color = "lightblue";
    } else if (n < static_cast<int>(hw.hogwild.size()) && hw.hogwild[n]) {
      color = "salmon";
    } else if (n < static_cast<int>(hot.checked.size()) && hot.checked[n]) {
      color = "orange";
    }
    out += "  " + node_id(n) + " [label=\"" + label + "\"";
    if (!color.empty()) out += ", style=filled, fillcolor=" + color;
    out += "];\n";
  }
  for (const int n : order) {
    for (const int callee : g.ResolveAll(g.Sym(n).calls)) {
      out += "  " + node_id(n) + " -> " + node_id(callee) + ";\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace actor_lint
