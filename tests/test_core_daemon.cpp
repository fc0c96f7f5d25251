#include "core/daemon.hpp"

#include <gtest/gtest.h>

#include "core/system.hpp"
#include "net/failure.hpp"

namespace drs::core {
namespace {

using namespace drs::util::literals;

class DaemonTest : public ::testing::Test {
 protected:
  DaemonTest()
      : network(sim, {.node_count = 6, .backplane = {}}),
        system(network, config()),
        injector(network) {
    system.start();
  }

  static DrsConfig config() {
    DrsConfig c;
    c.probe_interval = 50_ms;
    c.probe_timeout = 20_ms;
    c.failures_to_down = 2;
    c.discover_timeout = 25_ms;
    return c;
  }

  /// One detection window: failures_to_down probe cycles + slack.
  util::Duration detection_budget() const { return 500_ms; }

  sim::Simulator sim;
  net::ClusterNetwork network;
  DrsSystem system;
  net::FailureInjector injector;
};

TEST_F(DaemonTest, HealthyClusterStaysDirect) {
  sim.run_for(1_s);
  for (net::NodeId i = 0; i < 6; ++i) {
    for (net::NodeId j = 0; j < 6; ++j) {
      if (i == j) continue;
      EXPECT_EQ(system.daemon(i).peer_mode(j), PeerRouteMode::kDirect);
    }
    EXPECT_EQ(system.daemon(i).metrics().links_declared_down, 0u);
    EXPECT_TRUE(system.daemon(i).host_routes_empty());
  }
}

TEST_F(DaemonTest, PeerPrimaryNicFailureDetoursViaSecondary) {
  sim.run_for(200_ms);
  injector.apply_now(net::ClusterNetwork::nic_component(1, 0), true);
  sim.run_for(detection_budget());
  EXPECT_EQ(system.daemon(0).peer_mode(1), PeerRouteMode::kViaNetworkB);
  EXPECT_TRUE(system.test_reachability(0, 1));
  // And symmetrically from node 1's perspective towards everyone.
  EXPECT_EQ(system.daemon(1).peer_mode(0), PeerRouteMode::kViaNetworkB);
}

TEST_F(DaemonTest, OwnNicFailureDetoursEveryPeer) {
  sim.run_for(200_ms);
  injector.apply_now(net::ClusterNetwork::nic_component(0, 0), true);
  sim.run_for(detection_budget());
  for (net::NodeId peer = 1; peer < 6; ++peer) {
    EXPECT_EQ(system.daemon(0).peer_mode(peer), PeerRouteMode::kViaNetworkB)
        << "peer " << peer;
    EXPECT_TRUE(system.test_reachability(0, peer));
  }
}

TEST_F(DaemonTest, BackplaneFailureDetoursViaOtherNetwork) {
  sim.run_for(200_ms);
  injector.apply_now(network.backplane_component(0), true);
  sim.run_for(detection_budget());
  EXPECT_EQ(system.daemon(2).peer_mode(4), PeerRouteMode::kViaNetworkB);
  EXPECT_TRUE(system.test_reachability(2, 4));
}

TEST_F(DaemonTest, CrossSplitSelectsRelayDeterministically) {
  sim.run_for(200_ms);
  injector.apply_now(net::ClusterNetwork::nic_component(0, 1), true);
  injector.apply_now(net::ClusterNetwork::nic_component(1, 0), true);
  sim.run_for(1_s);
  EXPECT_EQ(system.daemon(0).peer_mode(1), PeerRouteMode::kRelay);
  // Deterministic choice: lowest-id healthy candidate, which is node 2.
  ASSERT_TRUE(system.daemon(0).relay_for(1).has_value());
  EXPECT_EQ(*system.daemon(0).relay_for(1), 2);
  EXPECT_TRUE(system.test_reachability(0, 1));
  EXPECT_GE(system.daemon(2).active_leases(), 1u);
}

TEST_F(DaemonTest, RelayPathSurvivesTtl) {
  // Loop-freedom check: through the relay, a packet crosses at most one
  // intermediate hop, so a TTL of 2 must be enough.
  sim.run_for(200_ms);
  injector.apply_now(net::ClusterNetwork::nic_component(0, 1), true);
  injector.apply_now(net::ClusterNetwork::nic_component(1, 0), true);
  sim.run_for(1_s);
  std::uint64_t ttl_drops = 0;
  for (net::NodeId i = 0; i < 6; ++i) {
    ttl_drops += network.host(i).counters().drop_ttl;
  }
  EXPECT_EQ(ttl_drops, 0u);
  EXPECT_TRUE(system.test_reachability(0, 1));
}

TEST_F(DaemonTest, NoRelayWhenDisabled) {
  system.stop();
  sim::Simulator local_sim;
  net::ClusterNetwork local_net(local_sim, {.node_count = 6, .backplane = {}});
  DrsConfig no_relay = config();
  no_relay.allow_relay = false;
  DrsSystem local(local_net, no_relay);
  local.start();
  local_sim.run_for(200_ms);
  local_net.set_component_failed(net::ClusterNetwork::nic_component(0, 1), true);
  local_net.set_component_failed(net::ClusterNetwork::nic_component(1, 0), true);
  local_sim.run_for(2_s);
  EXPECT_EQ(local.daemon(0).peer_mode(1), PeerRouteMode::kUnreachable);
  EXPECT_FALSE(local.test_reachability(0, 1));
  EXPECT_EQ(local.daemon(0).metrics().discoveries_started, 0u);
}

TEST_F(DaemonTest, HealRestoresDirectAndCleansUp) {
  sim.run_for(200_ms);
  injector.apply_now(net::ClusterNetwork::nic_component(0, 1), true);
  injector.apply_now(net::ClusterNetwork::nic_component(1, 0), true);
  sim.run_for(1_s);
  ASSERT_EQ(system.daemon(0).peer_mode(1), PeerRouteMode::kRelay);

  network.heal_all();
  sim.run_for(1_s);
  EXPECT_EQ(system.daemon(0).peer_mode(1), PeerRouteMode::kDirect);
  EXPECT_TRUE(system.daemon(0).host_routes_empty());
  // Teardown reached the relay: no leases linger.
  for (net::NodeId i = 0; i < 6; ++i) {
    EXPECT_EQ(system.daemon(i).active_leases(), 0u) << "node " << i;
  }
}

TEST_F(DaemonTest, RelayFailureTriggersRediscovery) {
  sim.run_for(200_ms);
  injector.apply_now(net::ClusterNetwork::nic_component(0, 1), true);
  injector.apply_now(net::ClusterNetwork::nic_component(1, 0), true);
  sim.run_for(1_s);
  ASSERT_TRUE(system.daemon(0).relay_for(1).has_value());
  const net::NodeId first_relay = *system.daemon(0).relay_for(1);
  EXPECT_EQ(first_relay, 2);

  // Kill the relay's bridging ability entirely.
  injector.apply_now(net::ClusterNetwork::nic_component(first_relay, 0), true);
  injector.apply_now(net::ClusterNetwork::nic_component(first_relay, 1), true);
  sim.run_for(2_s);
  ASSERT_TRUE(system.daemon(0).relay_for(1).has_value());
  EXPECT_NE(*system.daemon(0).relay_for(1), first_relay);
  EXPECT_TRUE(system.test_reachability(0, 1));
}

TEST_F(DaemonTest, LeaseExpiresWithoutRefresh) {
  sim.run_for(200_ms);
  injector.apply_now(net::ClusterNetwork::nic_component(0, 1), true);
  injector.apply_now(net::ClusterNetwork::nic_component(1, 0), true);
  sim.run_for(1_s);
  ASSERT_GE(system.daemon(2).active_leases(), 1u);
  // Requester vanishes (host dies completely): refreshes stop; the lease
  // must expire on its own.
  system.daemon(0).stop();
  system.daemon(1).stop();
  sim.run_for(config().relay_route_lifetime + config().probe_interval * 2 +
              500_ms);
  EXPECT_EQ(system.daemon(2).active_leases(), 0u);
  EXPECT_GE(system.daemon(2).metrics().leases_expired, 1u);
}

TEST_F(DaemonTest, DetectionLatencyWithinBudget) {
  sim.run_for(200_ms);
  const util::SimTime injected = sim.now();
  injector.apply_now(net::ClusterNetwork::nic_component(1, 0), true);
  sim.run_for(detection_budget());
  // Find node 0's down transition for (peer 1, net 0).
  const auto& history = system.daemon(0).links().history();
  util::SimTime detected = util::SimTime::max();
  for (const auto& t : history) {
    if (t.peer == 1 && t.network == 0 && t.to == LinkState::kDown) {
      detected = t.at;
      break;
    }
  }
  ASSERT_NE(detected, util::SimTime::max());
  const util::Duration latency = detected - injected;
  // Budget: at most failures_to_down cycles + one timeout + slack.
  EXPECT_LE(latency, config().probe_interval * 3 + config().probe_timeout);
  EXPECT_GT(latency, util::Duration::zero());
}

TEST_F(DaemonTest, RouteChangesAreRecorded) {
  sim.run_for(200_ms);
  injector.apply_now(net::ClusterNetwork::nic_component(1, 0), true);
  sim.run_for(detection_budget());
  network.heal_all();
  sim.run_for(detection_budget());
  const auto& changes = system.daemon(0).metrics().route_changes;
  ASSERT_GE(changes.size(), 2u);
  EXPECT_EQ(changes[0].peer, 1);
  EXPECT_EQ(changes[0].from, PeerRouteMode::kDirect);
  EXPECT_EQ(changes[0].to, PeerRouteMode::kViaNetworkB);
  EXPECT_EQ(changes.back().to, PeerRouteMode::kDirect);
}

TEST_F(DaemonTest, StopQuiescesCompletely) {
  sim.run_for(200_ms);
  system.stop();
  const std::uint64_t probes = system.total_probes_sent();
  sim.run_for(1_s);
  EXPECT_EQ(system.total_probes_sent(), probes);
  EXPECT_TRUE(sim.idle());
}

TEST_F(DaemonTest, PartialMonitoringProbesOnlyConfiguredPeers) {
  system.stop();
  sim::Simulator local_sim;
  net::ClusterNetwork local_net(local_sim, {.node_count = 6, .backplane = {}});
  DrsConfig partial = config();
  partial.monitored_peers = std::vector<net::NodeId>{1, 2};
  ProbeTimeoutSweeper sweeper(local_sim);
  proto::IcmpService icmp0(local_net.host(0));
  DrsDaemon daemon(local_net.host(0), icmp0, 6, partial, sweeper);
  // Echo responders so the monitored links are UP.
  proto::IcmpService icmp1(local_net.host(1));
  proto::IcmpService icmp2(local_net.host(2));
  proto::IcmpService icmp5(local_net.host(5));
  daemon.start();
  local_sim.run_for(500_ms);

  EXPECT_TRUE(daemon.monitors(1));
  EXPECT_TRUE(daemon.monitors(2));
  EXPECT_FALSE(daemon.monitors(5));
  EXPECT_EQ(daemon.monitored_count(), 2u);
  // 2 peers x 2 networks per 50 ms cycle, ~10 cycles: about 40 probes, and
  // certainly none to node 5.
  EXPECT_GT(daemon.metrics().probes_sent, 20u);
  EXPECT_LT(daemon.metrics().probes_sent, 60u);
  EXPECT_EQ(icmp5.echo_requests_answered(), 0u);
}

TEST_F(DaemonTest, UnmonitoredPeersNeverGetOffers) {
  // Nodes 2..5 monitor only each other; 0 and 1 monitor everyone. When the
  // 0-1 pair cross-splits, nobody with evidence about both can offer... but
  // 2..5 do monitor 0? No: restrict them to {2,3,4,5} minus self. Node 0's
  // discovery for peer 1 must then find no relay.
  system.stop();
  sim::Simulator local_sim;
  net::ClusterNetwork local_net(local_sim, {.node_count = 6, .backplane = {}});
  // One sweeper shared by every daemon, declared first so it outlives them
  // (as in DrsSystem).
  ProbeTimeoutSweeper sweeper(local_sim);
  std::vector<std::unique_ptr<proto::IcmpService>> icmps;
  std::vector<std::unique_ptr<DrsDaemon>> daemons;
  for (net::NodeId i = 0; i < 6; ++i) {
    DrsConfig c = config();
    if (i >= 2) {
      std::vector<net::NodeId> others;
      for (net::NodeId j = 2; j < 6; ++j) {
        if (j != i) others.push_back(j);
      }
      c.monitored_peers = others;
    }
    icmps.push_back(std::make_unique<proto::IcmpService>(local_net.host(i)));
    daemons.push_back(
        std::make_unique<DrsDaemon>(local_net.host(i), *icmps.back(), 6, c,
                                    sweeper));
    daemons.back()->start();
  }
  local_sim.run_for(500_ms);
  local_net.set_component_failed(net::ClusterNetwork::nic_component(0, 1), true);
  local_net.set_component_failed(net::ClusterNetwork::nic_component(1, 0), true);
  local_sim.run_for(2_s);
  // Discovery ran but nobody volunteered: candidates lack link state for
  // the target (node 1) — they do not monitor it.
  EXPECT_GT(daemons[0]->metrics().discoveries_started, 0u);
  EXPECT_EQ(daemons[0]->metrics().offers_received, 0u);
  EXPECT_EQ(daemons[0]->peer_mode(1), PeerRouteMode::kUnreachable);
}

TEST_F(DaemonTest, MetricsSummaryMentionsKeyCounters) {
  sim.run_for(300_ms);
  const std::string summary = system.daemon(0).metrics().summary();
  EXPECT_NE(summary.find("probes="), std::string::npos);
  EXPECT_NE(summary.find("discoveries="), std::string::npos);
}

}  // namespace
}  // namespace drs::core
