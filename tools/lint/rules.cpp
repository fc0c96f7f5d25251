// The rule catalog: determinism audit, module layering, API hygiene, and
// the v2 cross-TU families (shared-state, hotpath-purity, unordered-flow)
// built on the symbol index + call graph.
#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <functional>
// GCC 12 at -O2 with -fsanitize=address,undefined reports a false
// -Wmaybe-uninitialized inside the std::function that <regex> instantiates,
// which -Werror turns into a build failure. Silence it for this header only;
// every line of this file keeps the warning.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <regex>
#pragma GCC diagnostic pop

#include "callgraph.hpp"
#include "symbols.hpp"

namespace drslint {
namespace {

const std::vector<std::string> kRules = {
    "banned",          // nondeterministic call outside the allowlist
    "unordered",       // unannotated unordered container
    "layer",           // include crosses the declared module DAG
    "cycle",           // include cycle
    "dead-header",     // header no other file includes
    "pragma-once",     // header missing #pragma once
    "using-namespace", // using namespace in a header
    "float",           // float in src (doubles only: bit-exact cache keys)
    "raw-new",         // raw new/delete
    "nodiscard",       // Result/validation function missing [[nodiscard]]
    "bad-suppression", // malformed drs-lint comment
    "shared-state",    // mutable global / static local / static member
    "hotpath-purity",  // alloc/lock/throw reachable from a hot entry point
    "unordered-flow",  // unordered iteration that can reach an emission sink
};

bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Finds `token` in `code` as a whole word (both neighbours non-word chars).
/// Returns npos when absent; starts searching at `from`.
std::size_t find_token(const std::string& code, const std::string& token,
                       std::size_t from = 0) {
  std::size_t pos = code.find(token, from);
  while (pos != std::string::npos) {
    const bool left_ok = pos == 0 || !is_word_char(code[pos - 1]);
    const std::size_t end = pos + token.size();
    const bool right_ok = end >= code.size() || !is_word_char(code[end]);
    if (left_ok && right_ok) return pos;
    pos = code.find(token, pos + 1);
  }
  return std::string::npos;
}

bool next_nonspace_is(const std::string& code, std::size_t from, char want) {
  for (std::size_t i = from; i < code.size(); ++i) {
    if (code[i] == ' ' || code[i] == '\t') continue;
    return code[i] == want;
  }
  return false;
}

char prev_nonspace(const std::string& code, std::size_t before) {
  for (std::size_t i = before; i-- > 0;) {
    if (code[i] == ' ' || code[i] == '\t') continue;
    return code[i];
  }
  return '\0';
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}

struct Emitter {
  std::vector<Finding>& findings;
  const SourceFile& file;

  void emit(const std::string& rule, int line, const std::string& message,
            std::vector<std::string> chain = {}) {
    Finding f;
    f.rule = rule;
    f.file = file.rel;
    f.line = line;
    f.message = message;
    f.chain = std::move(chain);
    // File-scope findings (header-level facts) accept a suppression anywhere
    // in the file; line-scope findings need one on (or just above) the line.
    const bool file_scope =
        rule == "pragma-once" || rule == "dead-header" || rule == "cycle";
    for (const auto& s : file.suppressions) {
      if (s.rule != rule) continue;
      if (file_scope || s.target_line == line) {
        f.suppressed = true;
        f.reason = s.reason;
        break;
      }
    }
    findings.push_back(std::move(f));
  }
};

// --- determinism -----------------------------------------------------------

void check_banned(const Config& config, const SourceFile& file, Emitter& out) {
  for (const auto& prefix : config.banned_allow) {
    if (file.scan_rel.compare(0, prefix.size(), prefix) == 0) return;
  }
  struct Token {
    const char* text;
    bool call_only;  // must be followed by '(' (distinguishes time() calls)
  };
  static const Token kBanned[] = {
      {"std::rand", false},    {"random_device", false},
      {"system_clock", false}, {"steady_clock", false},
      {"getenv", false},       {"time", true},
  };
  for (std::size_t li = 0; li < file.lines.size(); ++li) {
    const std::string& code = file.lines[li].code;
    for (const auto& token : kBanned) {
      std::size_t pos = find_token(code, token.text);
      while (pos != std::string::npos) {
        if (!token.call_only ||
            next_nonspace_is(code, pos + std::string(token.text).size(), '(')) {
          out.emit("banned", static_cast<int>(li) + 1,
                   std::string("nondeterministic API '") + token.text +
                       "' (only util/rng, util/time and exp/cli may touch "
                       "wall clocks, entropy or the environment)");
        }
        pos = find_token(code, token.text, pos + 1);
      }
    }
  }
}

void check_unordered(const SourceFile& file, Emitter& out) {
  for (std::size_t li = 0; li < file.lines.size(); ++li) {
    const std::string& code = file.lines[li].code;
    if (trim(code).rfind('#', 0) == 0) continue;  // #include <unordered_map>
    for (const char* name : {"unordered_map", "unordered_set"}) {
      std::size_t pos = code.find(name);
      bool hit = false;
      while (pos != std::string::npos && !hit) {
        const bool left_ok = pos == 0 || !is_word_char(code[pos - 1]);
        const std::size_t end = pos + std::string(name).size();
        if (left_ok && end < code.size() && code[end] == '<') hit = true;
        pos = code.find(name, pos + 1);
      }
      if (hit) {
        out.emit("unordered", static_cast<int>(li) + 1,
                 std::string("std::") + name +
                     " has nondeterministic iteration order; annotate with "
                     "'// drs-lint: unordered-ok(<why order cannot leak into "
                     "output>)' or use an ordered container");
      }
    }
  }
}

// --- cross-TU families (v2) ------------------------------------------------

const char* state_kind_name(StateKind kind) {
  switch (kind) {
    case StateKind::kGlobal: return "namespace-scope global";
    case StateKind::kStaticLocal: return "function-local static";
    case StateKind::kStaticMember: return "static data member";
    case StateKind::kThreadLocal: return "thread_local";
  }
  return "shared state";
}

/// The shared-state audit: every mutable symbol with static storage duration
/// is a finding unless its file is allowlisted or the declaration carries a
/// shared-state-ok annotation. This inventory is the precondition for
/// sharding one simulation across worker threads (ROADMAP).
void check_shared_state(const Config& config,
                        const std::vector<SourceFile>& files,
                        const SymbolIndex& index,
                        std::vector<Finding>& findings) {
  for (const StateVar& var : index.state) {
    const SourceFile& file = files[var.file_index];
    bool allowed = false;
    for (const auto& prefix : config.shared_state_allow) {
      if (file.scan_rel.compare(0, prefix.size(), prefix) == 0) {
        allowed = true;
        break;
      }
    }
    if (allowed) continue;
    Emitter out{findings, file};
    out.emit("shared-state", var.line,
             std::string(state_kind_name(var.kind)) + " '" + var.name +
                 "' is shared mutable state; sharded simulations would race "
                 "on it — make it per-simulation, seal it const before run "
                 "start, or annotate with '// drs-lint: "
                 "shared-state-ok(<ownership story>)'");
  }
}

/// Allocation, locking and throwing spellings that must not appear in any
/// function reachable from a hot entry point. `reserve` is deliberately
/// absent: pre-sizing is the sanctioned setup idiom.
struct PurityToken {
  const char* text;
  const char* why;
};
const PurityToken kAllocTokens[] = {
    {"new", "allocates"},
    {"make_unique", "allocates"},
    {"make_shared", "allocates"},
    {"push_back", "may grow its container"},
    {"emplace_back", "may grow its container"},
    {"emplace", "may grow its container"},
    {"insert", "may grow its container"},
    {"resize", "may grow its container"},
    {"append", "may grow its container"},
    {"to_string", "builds a heap string"},
    {"ostringstream", "allocates per use"},
    {"stringstream", "allocates per use"},
};
const PurityToken kLockTokens[] = {
    {"mutex", "locks"},
    {"lock_guard", "locks"},
    {"unique_lock", "locks"},
    {"scoped_lock", "locks"},
    {"shared_lock", "locks"},
    {"condition_variable", "blocks"},
};

/// Hot-path purity via call-graph reachability: walk every function the
/// declared entry points can reach and flag allocating / locking / throwing
/// spellings, printing the call chain that makes the site hot.
void check_hotpath_purity(const std::vector<SourceFile>& files,
                          const SymbolIndex& index, const CallGraph& graph,
                          const HotReach& reach,
                          std::vector<Finding>& findings) {
  (void)graph;
  for (std::size_t fi = 0; fi < index.functions.size(); ++fi) {
    if (!reach.reached[fi]) continue;
    const FunctionDef& fn = index.functions[fi];
    const SourceFile& file = files[fn.file_index];
    Emitter out{findings, file};
    std::vector<std::string> chain;
    for (std::size_t v = fi; v != kNoFunction; v = reach.parent[v]) {
      chain.push_back(index.functions[v].qualified);
    }
    std::reverse(chain.begin(), chain.end());
    std::string chain_str;
    for (const auto& link : chain) {
      chain_str += (chain_str.empty() ? "" : " -> ") + link;
    }
    const std::size_t begin = static_cast<std::size_t>(fn.body_begin) - 1;
    const std::size_t end =
        std::min(file.lines.size(), static_cast<std::size_t>(fn.body_end));
    for (std::size_t li = begin; li < end; ++li) {
      const std::string& code = file.lines[li].code;
      if (trim(code).rfind('#', 0) == 0) continue;
      const int line_no = static_cast<int>(li) + 1;
      auto flag = [&](const char* token, const std::string& detail) {
        out.emit("hotpath-purity", line_no,
                 "'" + std::string(token) + "' " + detail + " in '" +
                     fn.qualified + "', reachable from hot entry '" +
                     reach.entry[fi] + "': " + chain_str +
                     " — hot paths must stay allocation-, lock- and "
                     "exception-free; annotate '// drs-lint: "
                     "hotpath-purity-ok(<why cold or amortized>)' if this "
                     "site cannot run per event",
                 chain);
      };
      for (const PurityToken& token : kAllocTokens) {
        // A function whose own name is an allocation spelling (FlatMap's
        // `insert`) is not an allocation site on its declaration line.
        if (line_no == fn.line && token.text == fn.last) continue;
        std::size_t pos = find_token(code, token.text);
        while (pos != std::string::npos) {
          // `= delete`-style declarations and `operator new` overloads do
          // not allocate; `new` inside a word was already excluded.
          if (std::string(token.text) == "new" &&
              prev_nonspace(code, pos) == '=') {
            pos = find_token(code, token.text, pos + 1);
            continue;
          }
          flag(token.text, token.why);
          pos = find_token(code, token.text, pos + 1);
        }
      }
      for (const PurityToken& token : kLockTokens) {
        if (find_token(code, token.text) != std::string::npos) {
          flag(token.text, token.why);
        }
      }
      if (find_token(code, "throw") != std::string::npos) {
        flag("throw", "raises an exception");
      }
    }
  }
}

/// determinism-v2: an `unordered-ok` annotation promises the container's
/// iteration order never leaks into output. Cross-TU, that promise breaks
/// the moment some function iterates the container and can reach a
/// trace/metric/JSON emission sink — flag exactly that combination.
void check_unordered_flow(const std::vector<SourceFile>& files,
                          const SymbolIndex& index, const SinkReach& sinks,
                          std::vector<Finding>& findings) {
  // The annotated-container inventory: names declared under an unordered-ok
  // suppression anywhere in the enforced trees.
  std::set<std::string> annotated;
  for (const SourceFile& file : files) {
    if (!file.enforced) continue;
    for (const Suppression& s : file.suppressions) {
      if (s.rule != "unordered") continue;
      const std::size_t li = static_cast<std::size_t>(s.target_line) - 1;
      if (li >= file.lines.size()) continue;
      const std::string& code = file.lines[li].code;
      if (code.find("unordered_map<") == std::string::npos &&
          code.find("unordered_set<") == std::string::npos) {
        continue;
      }
      // The declared name: the last identifier before the initializer or
      // terminator (declarations in this codebase fit on the line).
      std::string decl = code;
      for (char stop : {';', '=', '{'}) {
        const std::size_t pos = decl.find_last_of(stop);
        if (pos != std::string::npos) decl = decl.substr(0, pos);
      }
      std::size_t e = decl.size();
      while (e > 0 && !is_word_char(decl[e - 1])) --e;
      std::size_t b = e;
      while (b > 0 && is_word_char(decl[b - 1])) --b;
      if (b < e) annotated.insert(decl.substr(b, e - b));
    }
  }
  if (annotated.empty()) return;

  for (std::size_t fi = 0; fi < index.functions.size(); ++fi) {
    if (!sinks.reaches[fi]) continue;
    const FunctionDef& fn = index.functions[fi];
    const SourceFile& file = files[fn.file_index];
    Emitter out{findings, file};
    std::vector<std::string> chain;
    for (std::size_t v = fi; v != kNoFunction; v = sinks.next[v]) {
      chain.push_back(index.functions[v].qualified);
    }
    std::string chain_str;
    for (const auto& link : chain) {
      chain_str += (chain_str.empty() ? "" : " -> ") + link;
    }
    const std::size_t begin = static_cast<std::size_t>(fn.body_begin) - 1;
    const std::size_t end =
        std::min(file.lines.size(), static_cast<std::size_t>(fn.body_end));
    for (std::size_t li = begin; li < end; ++li) {
      const std::string& code = file.lines[li].code;
      if (trim(code).rfind('#', 0) == 0) continue;
      for (const std::string& name : annotated) {
        const std::size_t name_pos = find_token(code, name);
        if (name_pos == std::string::npos) continue;
        // Range-for over the container, or explicit iterator walks.
        const std::size_t for_pos = find_token(code, "for");
        const bool range_for = for_pos != std::string::npos &&
                               for_pos < name_pos &&
                               code.find(':', for_pos) < name_pos;
        const bool begin_call =
            code.compare(name_pos + name.size(), 7, ".begin(") == 0 ||
            code.compare(name_pos + name.size(), 8, ".cbegin(") == 0;
        if (!range_for && !begin_call) continue;
        out.emit("unordered-flow", static_cast<int>(li) + 1,
                 "iteration over annotated unordered container '" + name +
                     "' in '" + fn.qualified +
                     "' can reach emission sink '" + sinks.sink[fi] +
                     "': " + chain_str +
                     " — hash order would leak into output; iterate a "
                     "sorted view or annotate '// drs-lint: "
                     "unordered-flow-ok(<why order cannot reach the "
                     "sink>)'",
                 chain);
      }
    }
  }
}

// --- API hygiene -----------------------------------------------------------

void check_pragma_once(const SourceFile& file, Emitter& out) {
  if (!file.header) return;
  for (const auto& line : file.lines) {
    std::string code = trim(line.code);
    if (code.rfind('#', 0) == 0 &&
        code.find("pragma") != std::string::npos &&
        code.find("once") != std::string::npos) {
      return;
    }
  }
  out.emit("pragma-once", 1, "header is missing #pragma once");
}

void check_using_namespace(const SourceFile& file, Emitter& out) {
  if (!file.header) return;
  for (std::size_t li = 0; li < file.lines.size(); ++li) {
    std::size_t pos = find_token(file.lines[li].code, "using");
    if (pos == std::string::npos) continue;
    if (find_token(file.lines[li].code, "namespace", pos) != std::string::npos) {
      out.emit("using-namespace", static_cast<int>(li) + 1,
               "'using namespace' in a header leaks into every includer");
    }
  }
}

void check_float(const SourceFile& file, Emitter& out) {
  for (std::size_t li = 0; li < file.lines.size(); ++li) {
    if (find_token(file.lines[li].code, "float") != std::string::npos) {
      out.emit("float", static_cast<int>(li) + 1,
               "float is banned in src/ (doubles only — float would break "
               "bit-exact cache keys and golden tables)");
    }
  }
}

void check_raw_new(const SourceFile& file, Emitter& out) {
  for (std::size_t li = 0; li < file.lines.size(); ++li) {
    const std::string& code = file.lines[li].code;
    if (trim(code).rfind('#', 0) == 0) continue;  // #include <new>
    std::size_t pos = find_token(code, "new");
    while (pos != std::string::npos) {
      out.emit("raw-new", static_cast<int>(li) + 1,
               "raw 'new' — use std::make_unique/std::make_shared or a "
               "container");
      pos = find_token(code, "new", pos + 1);
    }
    pos = find_token(code, "delete");
    while (pos != std::string::npos) {
      // `= delete` declarations are not deallocations.
      if (prev_nonspace(code, pos) != '=') {
        out.emit("raw-new", static_cast<int>(li) + 1,
                 "raw 'delete' — ownership belongs in a smart pointer");
      }
      pos = find_token(code, "delete", pos + 1);
    }
  }
}

void check_nodiscard(const Config& config, const SourceFile& file,
                     Emitter& out) {
  if (!file.header || config.nodiscard_modules.count(file.module) == 0) return;
  // Declaration shape: optional qualifiers, a return type, a name, '('.
  // Lexer-lite on purpose: the triggers below are tuned so real declarations
  // match and expressions/parameter continuations do not.
  static const std::regex decl_re(
      R"(^\s*(?:(?:static|virtual|inline|constexpr|explicit|friend|const)\s+)*)"
      R"(((?:[A-Za-z_][A-Za-z0-9_]*::)*[A-Za-z_][A-Za-z0-9_]*)"
      R"((?:\s*<[^;{}()]*>)?(?:\s*[&*])*)\s+)"
      R"(([A-Za-z_][A-Za-z0-9_]*)\s*\()");
  static const std::regex skip_first_word(
      R"(^\s*(return|if|else|for|while|switch|case|do|throw|using|typedef|)"
      R"(template|delete|new|goto|public|private|protected|namespace)\b)");
  std::string prev_code;
  for (std::size_t li = 0; li < file.lines.size(); ++li) {
    const std::string& code = file.lines[li].code;
    if (trim(code).empty()) continue;
    std::smatch m;
    const std::string before = prev_code;
    prev_code = code;
    if (std::regex_search(code, skip_first_word)) continue;
    if (!std::regex_search(code, m, decl_re)) continue;
    const std::string type = m[1].str();
    const std::string name = m[2].str();
    const std::size_t open = static_cast<std::size_t>(m.position(0)) +
                             static_cast<std::size_t>(m.length(0));
    if (code.find('=') < open) continue;  // an initializer, not a declaration
    const bool validation = name.rfind("validate", 0) == 0 ||
                            name.rfind("is_valid", 0) == 0;
    const bool result_type = type.find("Result") != std::string::npos;
    if (!validation && !result_type) continue;
    if (code.find("[[nodiscard]]") != std::string::npos ||
        before.find("[[nodiscard]]") != std::string::npos) {
      continue;
    }
    out.emit("nodiscard", static_cast<int>(li) + 1,
             "'" + name + "' returns a " +
                 (validation ? "validation verdict" : "Result") +
                 "; declare it [[nodiscard]]");
  }
}

// --- layering --------------------------------------------------------------

void check_layers(const Config& config, const std::vector<SourceFile>& files,
                  std::vector<Finding>& findings) {
  std::map<std::string, const SourceFile*> by_rel;
  for (const auto& file : files) by_rel[file.rel] = &file;

  for (const auto& file : files) {
    if (!file.enforced) continue;
    Emitter out{findings, file};
    if (file.module.empty()) {
      out.emit("layer", 1,
               "file maps to no declared module; add a 'module' or 'file' "
               "entry to " + config.path);
      continue;
    }
    const ModuleRule& rule = config.modules.at(file.module);
    for (const auto& edge : file.includes) {
      auto it = by_rel.find(edge.target);
      if (it == by_rel.end() || !it->second->enforced) continue;
      const std::string& dep = it->second->module;
      if (dep.empty() || dep == file.module || rule.any) continue;
      if (rule.deps.count(dep) == 0) {
        out.emit("layer", edge.line,
                 "module '" + file.module + "' may not include module '" + dep +
                     "' (" + edge.target + "); declared deps: " +
                     [&] {
                       std::string s;
                       for (const auto& d : rule.deps) s += (s.empty() ? "" : " ") + d;
                       return s.empty() ? std::string("<none>") : s;
                     }());
      }
    }
  }
}

void check_cycles(const std::vector<SourceFile>& files,
                  std::vector<Finding>& findings) {
  // Tarjan SCC over enforced files; any SCC with >1 member is a cycle.
  std::map<std::string, int> index_of;
  std::vector<const SourceFile*> nodes;
  for (const auto& file : files) {
    if (!file.enforced) continue;
    index_of[file.rel] = static_cast<int>(nodes.size());
    nodes.push_back(&file);
  }
  const int n = static_cast<int>(nodes.size());
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    for (const auto& edge : nodes[static_cast<std::size_t>(i)]->includes) {
      auto it = index_of.find(edge.target);
      if (it != index_of.end()) adj[static_cast<std::size_t>(i)].push_back(it->second);
    }
  }
  std::vector<int> idx(static_cast<std::size_t>(n), -1),
      low(static_cast<std::size_t>(n), 0);
  std::vector<bool> on_stack(static_cast<std::size_t>(n), false);
  std::vector<int> stack;
  int counter = 0;
  std::function<void(int)> strongconnect = [&](int v) {
    idx[static_cast<std::size_t>(v)] = low[static_cast<std::size_t>(v)] = counter++;
    stack.push_back(v);
    on_stack[static_cast<std::size_t>(v)] = true;
    for (int w : adj[static_cast<std::size_t>(v)]) {
      if (idx[static_cast<std::size_t>(w)] == -1) {
        strongconnect(w);
        low[static_cast<std::size_t>(v)] =
            std::min(low[static_cast<std::size_t>(v)], low[static_cast<std::size_t>(w)]);
      } else if (on_stack[static_cast<std::size_t>(w)]) {
        low[static_cast<std::size_t>(v)] =
            std::min(low[static_cast<std::size_t>(v)], idx[static_cast<std::size_t>(w)]);
      }
    }
    if (low[static_cast<std::size_t>(v)] == idx[static_cast<std::size_t>(v)]) {
      std::vector<int> scc;
      int w;
      do {
        w = stack.back();
        stack.pop_back();
        on_stack[static_cast<std::size_t>(w)] = false;
        scc.push_back(w);
      } while (w != v);
      if (scc.size() > 1) {
        std::vector<std::string> members;
        for (int m : scc) members.push_back(nodes[static_cast<std::size_t>(m)]->rel);
        std::sort(members.begin(), members.end());
        std::string joined;
        for (const auto& m : members) joined += (joined.empty() ? "" : " -> ") + m;
        for (const SourceFile* node : nodes) {
          if (node->rel == members.front()) {
            Emitter out{findings, *node};
            out.emit("cycle", 1, "include cycle: " + joined);
            break;
          }
        }
      }
    }
  };
  for (int v = 0; v < n; ++v) {
    if (idx[static_cast<std::size_t>(v)] == -1) strongconnect(v);
  }
}

void check_dead_headers(const std::vector<SourceFile>& files,
                        std::vector<Finding>& findings) {
  // A header's own same-stem .cpp does not keep it alive.
  const auto stem = [](const std::string& path) {
    return path.substr(0, path.rfind('.'));
  };
  std::set<std::string> included;
  for (const auto& file : files) {
    for (const auto& edge : file.includes) {
      if (!file.header && stem(edge.target) == stem(file.rel)) continue;
      included.insert(edge.target);
    }
  }
  for (const auto& file : files) {
    if (!file.enforced || !file.header) continue;
    if (included.count(file.rel) == 0) {
      Emitter out{findings, file};
      out.emit("dead-header", 1,
               "no file in the scanned trees but its own .cpp includes this "
               "header; delete it or wire it into the public surface");
    }
  }
}

}  // namespace

bool is_known_rule(const std::string& id) {
  return std::find(kRules.begin(), kRules.end(), id) != kRules.end();
}

const std::vector<std::string>& rule_ids() { return kRules; }

std::vector<Finding> run_rules(const Config& config,
                               std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  for (const auto& file : files) {
    if (!file.enforced) continue;
    Emitter out{findings, file};
    check_banned(config, file, out);
    check_unordered(file, out);
    check_pragma_once(file, out);
    check_using_namespace(file, out);
    check_float(file, out);
    check_raw_new(file, out);
    check_nodiscard(config, file, out);
    for (const auto& [line, message] : file.bad_suppressions) {
      out.emit("bad-suppression", line, message);
    }
  }
  check_layers(config, files, findings);
  check_cycles(files, findings);
  check_dead_headers(files, findings);

  // Pass 2: the cross-TU families on the symbol index + call graph.
  const SymbolIndex index = build_symbol_index(files);
  const CallGraph graph = build_call_graph(config, files, index);
  check_shared_state(config, files, index, findings);
  if (!config.hot_entries.empty()) {
    const HotReach reach = reach_from_entries(graph, index, config.hot_entries);
    check_hotpath_purity(files, index, graph, reach, findings);
  }
  if (!config.sinks.empty()) {
    const SinkReach sinks = reach_to_sinks(graph, index, config.sinks);
    check_unordered_flow(files, index, sinks, findings);
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

}  // namespace drslint
