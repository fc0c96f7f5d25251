// drs-lint's own coverage: the fixture tree under tests/lint_fixtures/ makes
// every rule fire with known counts and exercises the suppression machinery,
// and the real tree must lint clean — so inserting, say, a
// std::random_device into src/core/daemon.cpp fails this test.
//
// The injection tests prove the v2 cross-TU rules bite on the *real* tree:
// a scratch copy of the repository is mutated (a static counter into
// src/sim, an allocating call into a hot-path-reachable function) and the
// lint run over the copy must fail with the right rule and call chain.
//
// The binary and paths arrive via compile definitions (see tests/CMakeLists):
//   DRS_LINT_BIN       absolute path to the drs-lint executable
//   DRS_LINT_ROOT      the repository root (real-tree run)
//   DRS_LINT_FIXTURES  tests/lint_fixtures
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include <sys/wait.h>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string out;
};

RunResult run(const std::string& cmd) {
  RunResult result;
  FILE* pipe = popen((cmd + " 2>/dev/null").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0) {
    result.out.append(buf.data(), n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string fixture_cmd() {
  return std::string(DRS_LINT_BIN) + " --root " + DRS_LINT_FIXTURES +
         " --config " + DRS_LINT_FIXTURES + "/lint.conf --json --quiet";
}

/// Counts finding objects in the JSON report per (rule, suppressed) by
/// walking the canonical key order the report writes: rule first,
/// suppressed later in the same object.
std::map<std::pair<std::string, bool>, int> tally(const std::string& json) {
  std::map<std::pair<std::string, bool>, int> counts;
  const std::string marker = "{\"rule\":\"";
  std::size_t pos = json.find(marker);
  while (pos != std::string::npos) {
    const std::size_t rule_begin = pos + marker.size();
    const std::size_t rule_end = json.find('"', rule_begin);
    const std::size_t obj_end = json.find('}', pos);
    if (rule_end == std::string::npos || obj_end == std::string::npos) break;
    const std::string rule = json.substr(rule_begin, rule_end - rule_begin);
    const bool suppressed =
        json.find("\"suppressed\":true", pos) < obj_end;
    ++counts[{rule, suppressed}];
    pos = json.find(marker, obj_end);
  }
  return counts;
}

/// Copies the enforced and reference trees of the real repository into a
/// scratch root so injection tests can mutate sources freely. The reference
/// trees (bench/examples) must come along or dead-header would fire on
/// headers only a bench or an example includes; tests/ is not a reference
/// tree, so it stays behind.
std::string scratch_tree(const std::string& tag) {
  const std::string root = std::string("/tmp/drs_lint_scratch_") + tag;
  const std::string src = DRS_LINT_ROOT;
  run("rm -rf " + root + " && mkdir -p " + root + "/tools");
  for (const char* tree : {"src", "bench", "examples"}) {
    run("cp -r " + src + "/" + tree + " " + root + "/" + tree);
  }
  run("cp -r " + src + "/tools/lint " + root + "/tools/lint");
  return root;
}

std::string lint_root_cmd(const std::string& root) {
  return std::string(DRS_LINT_BIN) + " --root " + root + " --json --quiet";
}

}  // namespace

TEST(DrsLint, FixtureTreeFiresEveryRuleWithExactCounts) {
  const RunResult result = run(fixture_cmd());
  ASSERT_EQ(result.exit_code, 1) << result.out;

  const auto counts = tally(result.out);
  const std::map<std::pair<std::string, bool>, int> expected = {
      {{"banned", false}, 6},     {{"banned", true}, 1},
      {{"unordered", false}, 1},  {{"unordered", true}, 1},
      {{"pragma-once", false}, 1},
      {{"using-namespace", false}, 1},
      {{"float", false}, 1},
      {{"raw-new", false}, 2},
      {{"shared-state", false}, 4}, {{"shared-state", true}, 1},
      {{"hotpath-purity", false}, 4}, {{"hotpath-purity", true}, 1},
      {{"unordered-flow", false}, 1}, {{"unordered-flow", true}, 1},
      {{"nodiscard", false}, 1},
      {{"bad-suppression", false}, 3},
      {{"layer", false}, 1},
      {{"cycle", false}, 1},
      {{"dead-header", false}, 2},
  };
  EXPECT_EQ(counts, expected) << result.out;
  EXPECT_NE(result.out.find("\"total\":34"), std::string::npos);
  EXPECT_NE(result.out.find("\"suppressed\":5"), std::string::npos);
  EXPECT_NE(result.out.find("\"unsuppressed\":29"), std::string::npos);
}

TEST(DrsLint, FindingsCarryFileLineAndRule) {
  const RunResult result = run(fixture_cmd());
  // Spot-check anchors for each family: determinism, layering, hygiene.
  EXPECT_NE(result.out.find("\"rule\":\"banned\",\"file\":\"src/core/banned.cpp\""),
            std::string::npos);
  EXPECT_NE(result.out.find("\"rule\":\"layer\",\"file\":\"src/layer_a/a.hpp\",\"line\":5"),
            std::string::npos);
  EXPECT_NE(result.out.find("src/cyc/x.hpp -> src/cyc/y.hpp"), std::string::npos);
  EXPECT_NE(result.out.find("\"rule\":\"dead-header\",\"file\":\"src/dead/orphan.hpp\""),
            std::string::npos);
  EXPECT_NE(result.out.find("\"rule\":\"dead-header\",\"file\":\"src/dead/self_only.hpp\""),
            std::string::npos);
  EXPECT_NE(result.out.find("\"rule\":\"pragma-once\",\"file\":\"src/core/no_pragma.hpp\""),
            std::string::npos);
  // Every static-storage flavour is named in its shared-state finding.
  EXPECT_NE(result.out.find("namespace-scope global 'fixture::g_mutable_counter'"),
            std::string::npos);
  EXPECT_NE(result.out.find("static data member 'fixture::Stats::total_'"),
            std::string::npos);
  EXPECT_NE(result.out.find("function-local static 'fixture::calls'"),
            std::string::npos);
  EXPECT_NE(result.out.find("thread_local 'fixture::t_scratch'"),
            std::string::npos);
  // The const global is exempt.
  EXPECT_EQ(result.out.find("kConfigLimit"), std::string::npos);
}

TEST(DrsLint, HotpathPurityWalksTheCallGraph) {
  const RunResult result = run(fixture_cmd());
  // Direct callee of a hot entry: the chain names both hops.
  EXPECT_NE(result.out.find("\"rule\":\"hotpath-purity\",\"file\":\"src/net/hotpath.cpp\""),
            std::string::npos);
  EXPECT_NE(result.out.find(
                "\"chain\":[\"fixture::Engine::dispatch\",\"fixture::Engine::enqueue\"]"),
            std::string::npos);
  // Multi-hop chain through the file-override module: sweep -> compact -> grow.
  EXPECT_NE(result.out.find("\"rule\":\"hotpath-purity\",\"file\":\"src/core/soa_table.cpp\""),
            std::string::npos);
  EXPECT_NE(
      result.out.find("fixture::SoaTable::sweep -> fixture::SoaTable::compact "
                      "-> fixture::SoaTable::grow"),
      std::string::npos);
  // cold_audit is reachable only through an annotated call site, so the
  // edge is pruned and its push_back never appears.
  EXPECT_EQ(result.out.find("cold_audit"), std::string::npos);
}

TEST(DrsLint, UnorderedFlowConnectsIterationToSinks) {
  const RunResult result = run(fixture_cmd());
  EXPECT_NE(result.out.find("iteration over annotated unordered container "
                            "'annotated' in 'fixture::dump_fleet'"),
            std::string::npos);
  EXPECT_NE(result.out.find("\"chain\":[\"fixture::dump_fleet\",\"fixture::emit_json\"]"),
            std::string::npos);
  // count_fleet iterates the same container but reaches no sink: clean.
  EXPECT_EQ(result.out.find("count_fleet"), std::string::npos);
}

TEST(DrsLint, SuppressionsCarryTheirReason) {
  const RunResult result = run(fixture_cmd());
  // The well-formed suppression surfaces as a suppressed finding with its
  // reason; the allowlisted util/rng file produces no finding at all, for
  // either the banned or the shared-state rule.
  EXPECT_NE(result.out.find("fixture proves suppression machinery"),
            std::string::npos);
  EXPECT_NE(result.out.find("fixture proves shared-state suppression works"),
            std::string::npos);
  EXPECT_EQ(result.out.find("rng_helpers"), std::string::npos);
  EXPECT_EQ(result.out.find("g_entropy_calls"), std::string::npos);
  // Malformed suppressions are findings, not silent no-ops — including a
  // typo'd rule token, which must never quietly cover nothing.
  EXPECT_NE(result.out.find("needs a non-empty reason"), std::string::npos);
  EXPECT_NE(result.out.find("unknown rule 'nosuchrule'"), std::string::npos);
  EXPECT_NE(result.out.find("malformed suppression 'shared-state-okay'"),
            std::string::npos);
}

TEST(DrsLint, ReportIsDeterministic) {
  const RunResult a = run(fixture_cmd());
  const RunResult b = run(fixture_cmd());
  EXPECT_EQ(a.out, b.out);
  EXPECT_EQ(a.exit_code, b.exit_code);
}

TEST(DrsLint, RuleCatalogIsStable) {
  const RunResult result = run(std::string(DRS_LINT_BIN) + " --list-rules");
  ASSERT_EQ(result.exit_code, 0);
  for (const char* rule :
       {"banned", "unordered", "layer", "cycle", "dead-header", "pragma-once",
        "using-namespace", "float", "raw-new", "nodiscard", "bad-suppression",
        "shared-state", "hotpath-purity", "unordered-flow"}) {
    EXPECT_NE(result.out.find(rule), std::string::npos) << rule;
  }
  // hotpath-alloc was replaced by the call-graph-aware hotpath-purity rule
  // in schema v2; a stale suppression for it is now a bad-suppression.
  EXPECT_EQ(result.out.find("hotpath-alloc"), std::string::npos);
}

TEST(DrsLint, RealTreeLintsClean) {
  const RunResult result = run(std::string(DRS_LINT_BIN) + " --root " +
                               DRS_LINT_ROOT + " --json --quiet");
  EXPECT_EQ(result.exit_code, 0) << result.out;
  EXPECT_NE(result.out.find("\"drs_lint\":2"), std::string::npos);
  EXPECT_NE(result.out.find("\"unsuppressed\":0"), std::string::npos)
      << result.out;
}

TEST(DrsLint, InjectedSharedStateFailsTheRealTree) {
  const std::string root = scratch_tree("shared_state");
  const RunResult baseline = run(lint_root_cmd(root));
  ASSERT_EQ(baseline.exit_code, 0) << baseline.out;

  // A process-wide mutable counter in the simulator core: exactly the
  // state that would race once simulations shard across threads.
  run("printf '\\nstatic int injected_counter = 0;\\n' >> " + root +
      "/src/sim/simulator.cpp");
  const RunResult result = run(lint_root_cmd(root));
  EXPECT_EQ(result.exit_code, 1) << result.out;
  EXPECT_NE(result.out.find("\"rule\":\"shared-state\""), std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("injected_counter"), std::string::npos);
  run("rm -rf " + root);
}

TEST(DrsLint, InjectedHotPathAllocationFailsWithChain) {
  const std::string root = scratch_tree("hotpath");
  const RunResult baseline = run(lint_root_cmd(root));
  ASSERT_EQ(baseline.exit_code, 0) << baseline.out;

  // Grow a container inside Nic::deliver, a declared hot entry: the
  // finding must name the rule AND print the reachability chain.
  run("sed -i 's|void deliver(const Frame& frame) {|void deliver(const Frame\\& frame) { audit_.push_back(frame);|' " +
      root + "/src/net/nic.hpp");
  const RunResult result = run(lint_root_cmd(root));
  EXPECT_EQ(result.exit_code, 1) << result.out;
  EXPECT_NE(result.out.find("\"rule\":\"hotpath-purity\""), std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("reachable from hot entry 'Nic::deliver'"),
            std::string::npos)
      << result.out;
  EXPECT_NE(result.out.find("\"chain\":[\"drs::net::Nic::deliver\"]"),
            std::string::npos)
      << result.out;
  run("rm -rf " + root);
}

TEST(DrsLint, BadConfigIsAUsageError) {
  const RunResult result = run(std::string(DRS_LINT_BIN) + " --root " +
                               DRS_LINT_FIXTURES + " --config /nonexistent");
  EXPECT_EQ(result.exit_code, 2);
}
