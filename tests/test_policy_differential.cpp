// Differential pin of the comparison harness across the policy-API redesign.
//
// The golden file tests/golden/comparison_results.txt was generated from the
// pre-redesign enum-switch harness (DRS + RIP over six fixed failure
// scenarios at the comparison test's n=8 configuration). The registry-backed
// harness must reproduce those results byte-identically through the
// string-keyed policy path.
//
// To regenerate after an intentional behaviour change:
//   DRS_UPDATE_GOLDEN=1 ./build/tests/test_policy_differential
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "golden_file.hpp"
#include "net/network.hpp"
#include "reactive/comparison.hpp"

namespace drs::reactive {
namespace {

using namespace drs::util::literals;

struct NamedScenario {
  const char* name;
  std::vector<net::ComponentIndex> failed;
};

// Mirrors the failure menagerie exercised by test_reactive_comparison and
// bench_proactive_vs_reactive, at the comparison test's n=8 geometry.
std::vector<NamedScenario> corpus() {
  constexpr std::uint16_t n = 8;
  return {
      {"none", {}},
      {"peer_primary_nic", {net::ClusterNetwork::nic_component(1, 0)}},
      {"own_primary_nic", {net::ClusterNetwork::nic_component(0, 0)}},
      {"backplane_a", {static_cast<net::ComponentIndex>(2 * n + 0)}},
      {"cross_split",
       {net::ClusterNetwork::nic_component(0, 1),
        net::ClusterNetwork::nic_component(1, 0)}},
      {"three_nics",
       {net::ClusterNetwork::nic_component(1, 0),
        net::ClusterNetwork::nic_component(3, 0),
        net::ClusterNetwork::nic_component(5, 1)}},
  };
}

void serialize(std::ostringstream& out, const char* policy,
               const char* scenario, const ScenarioResult& r) {
  out << "policy=" << policy << " scenario=" << scenario
      << " healthy_before=" << (r.healthy_before ? 1 : 0)
      << " recovered=" << (r.recovered ? 1 : 0) << " app_outage_ns=";
  if (r.app_outage == util::Duration::max()) {
    out << "never";
  } else {
    out << r.app_outage.ns();
  }
  out << " last_loss_after_ns=" << r.last_loss_after.ns()
      << " probes_lost=" << r.probes_lost << " probes_total=" << r.probes_total
      << " protocol_messages=" << r.protocol_messages << "\n";
}

ScenarioConfig registry_config(const char* policy) {
  ScenarioConfig config;
  config.node_count = 8;
  config.policy = policy;
  config.params.drs.probe_interval = 50_ms;
  config.params.drs.probe_timeout = 20_ms;
  config.params.drs.failures_to_down = 2;
  config.params.drs.discover_timeout = 25_ms;
  config.params.rip.advertise_interval = 1_s;
  config.params.rip.route_timeout = 6_s;
  config.warmup = 3_s;
  config.measure = 12_s;
  return config;
}

std::string run_corpus_via_registry() {
  std::ostringstream out;
  for (const char* policy : {"drs", "rip"}) {
    for (const NamedScenario& scenario : corpus()) {
      const ScenarioResult result =
          run_failure_scenario(registry_config(policy), scenario.failed);
      serialize(out, policy, scenario.name, result);
    }
  }
  return out.str();
}

TEST(PolicyDifferential, RegistryPathMatchesPreRedesignGolden) {
  check_golden("comparison_results.txt", run_corpus_via_registry(),
               "comparison results",
               " — the redesigned harness must match the pre-redesign output "
               "byte-for-byte (regenerate with DRS_UPDATE_GOLDEN=1 only if the "
               "behaviour change is intentional)");
}

}  // namespace
}  // namespace drs::reactive
