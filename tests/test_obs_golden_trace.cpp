// Golden-trace pinning of the observability layer.
//
// Two checked-in canonical-JSON traces lock the protocol's observable story
// down to the byte: a hand-built 4-node single-NIC-failure scenario (every
// event kind except the ping_sent flood) and campaign 0 of the default
// scripted chaos schedule (control-plane events only). A third test proves
// the property the canonical exporter exists for: traces captured through
// the sharded chaos runner are byte-identical at --threads 1 and 8 and
// across reruns.
//
// To regenerate after an intentional protocol/trace change:
//   DRS_UPDATE_GOLDEN=1 ./build/tests/test_obs_golden_trace
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chaos/runner.hpp"
#include "core/system.hpp"
#include "golden_file.hpp"
#include "net/network.hpp"
#include "obs/export.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"

namespace drs {
namespace {

// Everything but the high-volume ping_sent flood: the full failure story.
std::vector<obs::TraceEvent> without_ping_sent(
    const std::vector<obs::TraceEvent>& events) {
  return obs::filter_kinds(
      events,
      {obs::TraceEventKind::kPingLost, obs::TraceEventKind::kProbeLost,
       obs::TraceEventKind::kLinkChange, obs::TraceEventKind::kDetourInstall,
       obs::TraceEventKind::kDetourSwitch,
       obs::TraceEventKind::kDetourTeardown,
       obs::TraceEventKind::kDiscoveryStart,
       obs::TraceEventKind::kRelaySelected,
       obs::TraceEventKind::kLeaseGranted, obs::TraceEventKind::kLeaseExpired,
       obs::TraceEventKind::kTcpRetransmit, obs::TraceEventKind::kTcpRto,
       obs::TraceEventKind::kQueueHighWater});
}

// The control-plane skeleton: what the daemons decided, not what they sent.
std::vector<obs::TraceEvent> control_plane(
    const std::vector<obs::TraceEvent>& events) {
  return obs::filter_kinds(
      events,
      {obs::TraceEventKind::kProbeLost, obs::TraceEventKind::kLinkChange,
       obs::TraceEventKind::kDetourInstall,
       obs::TraceEventKind::kDetourSwitch,
       obs::TraceEventKind::kDetourTeardown,
       obs::TraceEventKind::kDiscoveryStart,
       obs::TraceEventKind::kRelaySelected,
       obs::TraceEventKind::kLeaseGranted,
       obs::TraceEventKind::kLeaseExpired});
}

// 4 nodes, warm up 1 s, node 1 loses its network-A NIC for 2 s, then 2 s to
// converge back to pristine. The one scenario every reader of
// docs/OBSERVABILITY.md should look at first.
std::vector<obs::TraceEvent> nic_failure_trace() {
  sim::Simulator sim;
  obs::Tracer tracer;
  sim.set_tracer(&tracer);
  net::ClusterNetwork network(sim, {.node_count = 4, .backplane = {}});
  core::DrsSystem system(network, chaos::fast_campaign_drs_config());
  system.start();
  sim.run_for(util::Duration::seconds(1));
  const net::ComponentIndex nic = net::ClusterNetwork::nic_component(1, 0);
  network.set_component_failed(nic, true);
  sim.run_for(util::Duration::seconds(2));
  network.set_component_failed(nic, false);
  sim.run_for(util::Duration::seconds(2));
  system.stop();
  EXPECT_EQ(tracer.evicted(), 0u) << "golden scenario must fit the ring";
  return tracer.events();
}

TEST(GoldenTrace, FourNodeNicFailure) {
  const std::string actual =
      obs::to_canonical_json(without_ping_sent(nic_failure_trace()));
  // Rerun identity first: the golden is only meaningful if the scenario is
  // a pure function.
  ASSERT_EQ(obs::to_canonical_json(without_ping_sent(nic_failure_trace())),
            actual);
  check_golden("obs_trace_nic_failure.json", actual, "trace");
}

TEST(GoldenTrace, ScriptedChaosScheduleCampaignZero) {
  chaos::CampaignConfig config;
  config.capture_trace = true;
  const chaos::CampaignResult result = chaos::run_campaign(0xC4A05, 0, config);
  EXPECT_TRUE(result.violations.empty());
  EXPECT_EQ(result.trace_evicted, 0u) << "golden campaign must fit the ring";
  const std::string actual =
      obs::to_canonical_json(control_plane(result.trace));
  const chaos::CampaignResult rerun = chaos::run_campaign(0xC4A05, 0, config);
  ASSERT_EQ(obs::to_canonical_json(control_plane(rerun.trace)), actual);
  check_golden("obs_trace_chaos_campaign0.json", actual, "trace");
}

TEST(GoldenTrace, RunnerTracesAreThreadCountInvariant) {
  chaos::ChaosOptions options;
  options.seed = 2026;
  options.campaigns = 6;
  options.capture_traces = true;
  options.threads = 1;
  const chaos::ChaosReport single = chaos::run_chaos(options);
  ASSERT_EQ(single.campaign_traces.size(), options.campaigns);
  for (unsigned threads : {2u, 8u}) {
    options.threads = threads;
    const chaos::ChaosReport multi = chaos::run_chaos(options);
    EXPECT_EQ(multi.to_json(), single.to_json());
    ASSERT_EQ(multi.campaign_traces.size(), single.campaign_traces.size());
    for (std::size_t i = 0; i < single.campaign_traces.size(); ++i) {
      EXPECT_EQ(multi.campaign_traces[i], single.campaign_traces[i])
          << "campaign " << i << " trace differs at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace drs
