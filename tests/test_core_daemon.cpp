#include "core/daemon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "core/system.hpp"
#include "net/failure.hpp"
#include "obs/tracer.hpp"
#include "util/arena.hpp"

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
  // Step to node 0's DOWN verdict for (peer 1, net 0).
  const util::SimTime detected =
      sim.step_until(injected + detection_budget(), [&] {
        return system.daemon(0).links().state(1, net::kNetworkA) ==
               LinkState::kDown;
      });
  ASSERT_NE(detected, util::SimTime::max());
  const util::Duration latency = detected - injected;
  // Budget: at most failures_to_down cycles + one timeout + slack.
  EXPECT_LE(latency, config().probe_interval * 3 + config().probe_timeout);
  EXPECT_GT(latency, util::Duration::zero());
}

TEST_F(DaemonTest, DetourChangesAreTraced) {
  // The same cluster, traced from the start.
  system.stop();
  sim::Simulator traced_sim;
  obs::Tracer tracer;
  traced_sim.set_tracer(&tracer);
  net::ClusterNetwork traced_net(traced_sim, {.node_count = 6, .backplane = {}});
  DrsSystem traced(traced_net, config());
  traced.start();
  traced_sim.run_for(200_ms);
  traced_net.set_component_failed(net::ClusterNetwork::nic_component(1, 0),
                                  true);
  traced_sim.run_for(detection_budget());
  traced_net.heal_all();
  traced_sim.run_for(detection_budget());
  EXPECT_EQ(tracer.evicted(), 0u);
  // Node 0's route changes: a detour install (leaving direct), switches,
  // and a teardown (back to direct).
  std::vector<obs::TraceEvent> changes;
  tracer.for_each([&](const obs::TraceEvent& e) {
    if (e.node == 0 && (e.kind == obs::TraceEventKind::kDetourInstall ||
                        e.kind == obs::TraceEventKind::kDetourSwitch ||
                        e.kind == obs::TraceEventKind::kDetourTeardown)) {
      changes.push_back(e);
    }
  });
  ASSERT_GE(changes.size(), 2u);
  EXPECT_EQ(changes[0].peer, 1);
  EXPECT_EQ(changes[0].kind, obs::TraceEventKind::kDetourInstall);
  EXPECT_EQ(changes[0].a,
            static_cast<std::int64_t>(PeerRouteMode::kViaNetworkB));
  EXPECT_EQ(changes.back().kind, obs::TraceEventKind::kDetourTeardown);
  EXPECT_EQ(traced.daemon(0).metrics().route_changes, changes.size());
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
  ProbeScheduler scheduler(local_sim);
  proto::IcmpService icmp0(local_net.host(0));
  DrsDaemon daemon(local_net.host(0), icmp0, 6, partial, scheduler);
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
  // One scheduler shared by every daemon, declared first so it outlives them
  // (as in DrsSystem).
  ProbeScheduler scheduler(local_sim);
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
                                    scheduler));
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

TEST_F(DaemonTest, MessyMonitoredListYieldsTheSortedDistinctPeers) {
  system.stop();
  sim::Simulator local_sim;
  net::ClusterNetwork local_net(local_sim, {.node_count = 6, .backplane = {}});
  DrsConfig messy = config();
  // Out of order, with duplicates, self (node 0) and an id outside the
  // cluster: node 0 monitors exactly {2, 3, 5}.
  messy.monitored_peers = std::vector<net::NodeId>{5, 2, 0, 3, 2, 9, 5};
  ProbeScheduler scheduler(local_sim);
  proto::IcmpService icmp0(local_net.host(0));
  DrsDaemon daemon(local_net.host(0), icmp0, 6, messy, scheduler);
  std::vector<std::unique_ptr<proto::IcmpService>> responders;
  for (net::NodeId i = 1; i < 6; ++i) {
    responders.push_back(std::make_unique<proto::IcmpService>(local_net.host(i)));
  }
  daemon.start();
  local_sim.run_for(500_ms);

  EXPECT_EQ(daemon.monitored_count(), 3u);
  for (const net::NodeId id :
       std::vector<net::NodeId>{0, 1, 2, 3, 4, 5, 6, 9, 0xFFFF}) {
    const bool monitored = id == 2 || id == 3 || id == 5;
    EXPECT_EQ(daemon.monitors(id), monitored) << "node " << id;
    EXPECT_EQ(daemon.peer_mode(id), PeerRouteMode::kDirect) << "node " << id;
    EXPECT_EQ(daemon.relay_for(id), std::nullopt) << "node " << id;
  }
  for (net::NodeId i = 1; i < 6; ++i) {
    const bool monitored = i == 2 || i == 3 || i == 5;
    EXPECT_EQ(responders[i - 1u]->echo_requests_answered() > 0, monitored)
        << "node " << i;
  }

  // Control frames from node 2 that name node 0 as the relay.
  const auto control_from_2 = [&](DrsMessageType type, net::NodeId requester,
                                  net::NodeId target) {
    auto payload = util::make_pooled<DrsControlPayload>(local_sim.arena());
    payload->type = type;
    payload->requester = requester;
    payload->target = target;
    payload->relay = 0;
    net::Packet packet;
    packet.dst = net::cluster_ip(net::kNetworkA, 0);
    packet.protocol = net::Protocol::kDrsControl;
    packet.payload = std::move(payload);
    ASSERT_TRUE(local_net.host(2).send(std::move(packet)));
    local_sim.run_for(5_ms);
  };
  // A lease or an offer naming an unmonitored or out-of-cluster node is
  // ignored.
  for (const auto& [requester, target] :
       std::vector<std::pair<net::NodeId, net::NodeId>>{
           {2, 4}, {2, 1}, {2, 9}, {4, 3}, {9, 3}, {2, 0xFFFF}}) {
    control_from_2(DrsMessageType::kRouteSet, requester, target);
    control_from_2(DrsMessageType::kRouteOffer, requester, target);
  }
  EXPECT_EQ(daemon.metrics().route_sets_honored, 0u);
  EXPECT_EQ(daemon.metrics().offers_received, 0u);
  EXPECT_EQ(daemon.active_leases(), 0u);
  // Between two monitored peers it is honoured.
  control_from_2(DrsMessageType::kRouteSet, 2, 3);
  EXPECT_EQ(daemon.metrics().route_sets_honored, 1u);
  EXPECT_EQ(daemon.active_leases(), 1u);
}

TEST(ProbeScheduler, SendsOffTheSharedTickKeepTheirOwnInstantAndRank) {
  // Six daemons sharing one scheduler, with five different entry counts, so
  // their spread offsets coincide only in part. Node 2 stops mid-cycle and
  // stays down for more than a cycle; node 4 stops just after a tick and
  // restarts before its orphaned cursor (due at 412.5 ms) comes due. Every
  // ping_sent must land at its own daemon's tick + floor(interval * pos /
  // total), in the order per-daemon send events pushed at the ticks would
  // pop: by instant, then by the tick whose claimed rank the send carries,
  // then by node id (daemons sharing a tick claim their ranks in node
  // order, so their same-instant sends go in ascending node id).
  constexpr std::uint16_t kNodes = 6;
  const std::vector<std::vector<net::NodeId>> monitored = {
      {1, 2, 3, 4, 5}, {0, 2}, {0, 1, 3}, {4}, {0, 1, 2, 3}, {0, 1, 2}};
  sim::Simulator sim;
  obs::Tracer tracer(std::size_t{1} << 16);
  sim.set_tracer(&tracer);
  net::ClusterNetwork network(sim, {.node_count = kNodes, .backplane = {}});
  // Declared before the daemons so it outlives them (as in DrsSystem).
  ProbeScheduler scheduler(sim);
  std::vector<std::unique_ptr<proto::IcmpService>> icmps;
  std::vector<std::unique_ptr<DrsDaemon>> daemons;
  const DrsConfig defaults;
  for (net::NodeId i = 0; i < kNodes; ++i) {
    DrsConfig c = defaults;
    c.monitored_peers = monitored[i];
    icmps.push_back(std::make_unique<proto::IcmpService>(network.host(i)));
    daemons.push_back(std::make_unique<DrsDaemon>(network.host(i),
                                                  *icmps.back(), kNodes, c,
                                                  scheduler));
  }
  for (auto& daemon : daemons) daemon->start();

  // Each node's running windows [start, stop). The stop and start events
  // are pushed before any tick, so they run first at their instants.
  constexpr std::int64_t kMs = 1'000'000;
  constexpr std::int64_t kEnd = 1000 * kMs;
  struct Window {
    std::int64_t start_ns;
    std::int64_t stop_ns;
  };
  std::vector<std::vector<Window>> windows(kNodes, {{0, kEnd + 1}});
  windows[2] = {{0, 125 * kMs}, {250 * kMs, kEnd + 1}};
  windows[4] = {{0, 401 * kMs}, {405 * kMs, kEnd + 1}};
  for (const net::NodeId node : std::vector<net::NodeId>{2, 4}) {
    sim.schedule_at(util::SimTime::from_ns(windows[node][0].stop_ns),
                    [&daemons, node] { daemons[node]->stop(); });
    sim.schedule_at(util::SimTime::from_ns(windows[node][1].start_ns),
                    [&daemons, node] { daemons[node]->start(); });
  }

  struct Send {
    std::int64_t at_ns;
    std::int64_t tick_ns;
    net::NodeId node;
    net::NetworkId network;
    std::uint32_t dst;
  };
  const std::int64_t interval = defaults.probe_interval.ns();
  std::vector<Send> expected;
  for (net::NodeId node = 0; node < kNodes; ++node) {
    std::vector<net::NodeId> peers = monitored[node];
    std::sort(peers.begin(), peers.end());
    const auto total = static_cast<std::int64_t>(2 * peers.size());
    for (const Window& w : windows[node]) {
      for (std::int64_t tick = w.start_ns; tick < w.stop_ns; tick += interval) {
        for (std::int64_t pos = 0; pos < total; ++pos) {
          const std::int64_t at = tick + interval * pos / total;
          if (at >= w.stop_ns) break;
          const auto via = static_cast<net::NetworkId>(pos % 2);
          const net::NodeId peer = peers[static_cast<std::size_t>(pos / 2)];
          expected.push_back(
              Send{at, tick, node, via, net::cluster_ip(via, peer).value()});
        }
      }
    }
  }
  std::sort(expected.begin(), expected.end(), [](const Send& a, const Send& b) {
    return std::tie(a.at_ns, a.tick_ns, a.node) <
           std::tie(b.at_ns, b.tick_ns, b.node);
  });

  // Run in 1 ms slices; the cursor ring holds at most one live cursor per
  // daemon plus the two orphans, and drops its consumed prefix once that
  // reaches half the ring, so it never passes twice that.
  std::size_t peak_cursors = 0;
  for (std::int64_t t = kMs; t <= kEnd; t += kMs) {
    sim.run_until(util::SimTime::from_ns(t));
    peak_cursors = std::max(peak_cursors, scheduler.cursor_count());
  }
  EXPECT_LE(peak_cursors, 2u * (kNodes + 2u));

  ASSERT_EQ(tracer.evicted(), 0u);
  std::vector<Send> observed;
  tracer.for_each([&](const obs::TraceEvent& e) {
    if (e.kind != obs::TraceEventKind::kPingSent) return;
    observed.push_back(Send{e.at_ns, 0, e.node, e.network,
                            static_cast<std::uint32_t>(e.b)});
  });
  ASSERT_EQ(observed.size(), expected.size());
  std::size_t shared_instants = 0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const Send& want = expected[i];
    const Send& got = observed[i];
    ASSERT_TRUE(got.at_ns == want.at_ns && got.node == want.node &&
                got.network == want.network && got.dst == want.dst)
        << "send " << i << ": got node " << got.node << " at " << got.at_ns
        << " ns, want node " << want.node << " at " << want.at_ns
        << " ns (tick " << want.tick_ns << ")";
    if (i > 0 && expected[i - 1].at_ns == want.at_ns) ++shared_instants;
  }
  // The inline path and the mid-ring insert both ran.
  EXPECT_GT(shared_instants, 100u);
  // A stopped daemon sends nothing.
  for (const Send& send : observed) {
    EXPECT_FALSE(send.node == 2 && send.at_ns >= 125 * kMs &&
                 send.at_ns < 250 * kMs)
        << "node 2 sent at " << send.at_ns << " ns while stopped";
    EXPECT_FALSE(send.node == 4 && send.at_ns >= 401 * kMs &&
                 send.at_ns < 405 * kMs)
        << "node 4 sent at " << send.at_ns << " ns while stopped";
  }
}

TEST(DrsControlPayload, WireSizeIsFixedWhateverTheType) {
  DrsControlPayload payload;
  EXPECT_EQ(payload.wire_size(), 24u);
  payload.type = DrsMessageType::kStatusReply;
  payload.links_down = 3;
  EXPECT_EQ(payload.wire_size(), 24u);
}

}  // namespace
}  // namespace drs::core
