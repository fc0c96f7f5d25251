// Property suite for the precomputed policies' backup sequences.
//
// The central claim (Chiesa-style static resilience): for every ordered
// observer pair, walking the precomputed arc sequence under a failure set is
// loop-free and delivers exactly when the failed topology still admits any
// path — no reconvergence, no coordination. The failure sets are every
// single- and double-component failure drawn from 50 seeded chaos schedules,
// checked against a brute-force reachability oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "chaos/schedule.hpp"
#include "net/network.hpp"
#include "policy/alternate_path.hpp"
#include "policy/backup_sequences.hpp"
#include "policy/static_resilient.hpp"
#include "sim/simulator.hpp"

namespace drs::policy {
namespace {

using namespace drs::util::literals;

constexpr std::uint16_t kNodeCount = 8;

bool contains(const std::vector<net::ComponentIndex>& sorted,
              net::ComponentIndex component) {
  return std::binary_search(sorted.begin(), sorted.end(), component);
}

/// Ground truth: the direct link a -> b over network k survives `failed`
/// (both NICs and the shared backplane).
bool oracle_link_up(net::NodeId a, net::NodeId b, net::NetworkId network,
                    const std::vector<net::ComponentIndex>& failed) {
  const auto backplane =
      static_cast<net::ComponentIndex>(2u * kNodeCount + network);
  return !contains(failed, backplane) &&
         !contains(failed, net::ClusterNetwork::nic_component(a, network)) &&
         !contains(failed, net::ClusterNetwork::nic_component(b, network));
}

/// Ground truth: src can reach dst at all — directly or through any relay.
/// (In the 2N+2 geometry every path is at most two hops; see
/// policy/backup_sequences.hpp.)
bool oracle_reachable(net::NodeId src, net::NodeId dst,
                      const std::vector<net::ComponentIndex>& failed) {
  for (net::NetworkId k = 0; k < net::kNetworksPerHost; ++k) {
    if (oracle_link_up(src, dst, k, failed)) return true;
  }
  for (net::NodeId relay = 0; relay < kNodeCount; ++relay) {
    if (relay == src || relay == dst) continue;
    bool leg1 = false, leg2 = false;
    for (net::NetworkId k = 0; k < net::kNetworksPerHost; ++k) {
      leg1 = leg1 || oracle_link_up(src, relay, k, failed);
      leg2 = leg2 || oracle_link_up(relay, dst, k, failed);
    }
    if (leg1 && leg2) return true;
  }
  return false;
}

/// Every distinct component that a chaos schedule ever fails.
std::vector<net::ComponentIndex> schedule_components(std::uint64_t seed,
                                                     std::uint32_t campaign) {
  chaos::ScheduleConfig config;
  config.node_count = kNodeCount;
  config.events = 12;
  const chaos::Schedule schedule =
      chaos::generate_schedule(seed, campaign, config);
  std::set<net::ComponentIndex> components;
  for (const net::FailureAction& action : schedule.actions) {
    if (action.fail) components.insert(action.component);
  }
  return {components.begin(), components.end()};
}

void check_walk(const BackupSequences& sequences,
                const std::vector<net::ComponentIndex>& failed) {
  for (net::NodeId src = 0; src < kNodeCount; ++src) {
    for (net::NodeId dst = 0; dst < kNodeCount; ++dst) {
      if (src == dst) continue;
      const WalkOutcome outcome = sequences.walk(src, dst, failed);
      // Loop-freedom: no node appears twice on any walked path.
      std::vector<net::NodeId> nodes = outcome.path;
      std::sort(nodes.begin(), nodes.end());
      EXPECT_EQ(std::adjacent_find(nodes.begin(), nodes.end()), nodes.end())
          << "loop in path for " << src << "->" << dst;
      EXPECT_LE(outcome.path.size(), 3u);  // at most one relay hop
      // Delivery exactly when the degraded topology admits any path.
      EXPECT_EQ(outcome.delivered, oracle_reachable(src, dst, failed))
          << src << "->" << dst;
      if (outcome.delivered) {
        ASSERT_FALSE(outcome.path.empty());
        EXPECT_EQ(outcome.path.front(), src);
        EXPECT_EQ(outcome.path.back(), dst);
      }
    }
  }
}

TEST(BackupSequenceProperty, LoopFreeAndCompleteUnderSingleFailures) {
  const BackupSequences sequences(kNodeCount, net::kNetworkA);
  for (std::uint32_t campaign = 0; campaign < 50; ++campaign) {
    for (const net::ComponentIndex component :
         schedule_components(/*seed=*/7, campaign)) {
      check_walk(sequences, {component});
    }
  }
}

TEST(BackupSequenceProperty, LoopFreeAndCompleteUnderDoubleFailures) {
  const BackupSequences sequences(kNodeCount, net::kNetworkA);
  for (std::uint32_t campaign = 0; campaign < 50; ++campaign) {
    const std::vector<net::ComponentIndex> components =
        schedule_components(/*seed=*/7, campaign);
    for (std::size_t i = 0; i < components.size(); ++i) {
      for (std::size_t j = i + 1; j < components.size(); ++j) {
        check_walk(sequences, {components[i], components[j]});
      }
    }
  }
}

TEST(BackupSequenceProperty, HealthyClusterAlwaysUsesPreferredDirect) {
  const BackupSequences sequences(kNodeCount, net::kNetworkB);
  for (net::NodeId src = 0; src < kNodeCount; ++src) {
    for (net::NodeId dst = 0; dst < kNodeCount; ++dst) {
      if (src == dst) continue;
      const WalkOutcome outcome = sequences.walk(src, dst, {});
      EXPECT_TRUE(outcome.delivered);
      EXPECT_EQ(outcome.path.size(), 2u);  // direct, no relay
    }
  }
}

// --- alternate-path precomputation on the 2N+2 geometry ---------------------

TEST(AlternatePathPrecompute, ArcOrderIsDirectThenCircularRelays) {
  const BackupSequences sequences(kNodeCount, net::kNetworkA);
  const auto& arcs = sequences.arcs(2, 5);
  // Two direct arcs first, preferred network leading.
  ASSERT_GE(arcs.size(), 2u);
  EXPECT_EQ(arcs[0].kind, BackupArc::Kind::kDirect);
  EXPECT_EQ(arcs[0].network, net::kNetworkA);
  EXPECT_EQ(arcs[1].kind, BackupArc::Kind::kDirect);
  EXPECT_EQ(arcs[1].network, net::kNetworkB);
  // Then every other node once, in ring order from src+1, skipping src/dst.
  ASSERT_EQ(arcs.size(), 2u + kNodeCount - 2u);
  const std::vector<net::NodeId> expected_relays = {3, 4, 6, 7, 0, 1};
  for (std::size_t i = 0; i < expected_relays.size(); ++i) {
    EXPECT_EQ(arcs[2 + i].kind, BackupArc::Kind::kRelay);
    EXPECT_EQ(arcs[2 + i].relay, expected_relays[i]) << "arc " << (2 + i);
  }
}

TEST(AlternatePathPrecompute, FleetGatewayRingOrderWrapsAt27) {
  // The 27-cluster fleet's gateway ring, one gateway per cluster: the relay
  // fallback order for gateway 25 -> 3 must wrap 26, 0, 1, 2(skip 3), 4...
  const BackupSequences sequences(27, net::kNetworkA);
  const auto& arcs = sequences.arcs(25, 3);
  ASSERT_EQ(arcs.size(), 2u + 27u - 2u);
  EXPECT_EQ(arcs[2].relay, 26);
  EXPECT_EQ(arcs[3].relay, 0);
  EXPECT_EQ(arcs[4].relay, 1);
  EXPECT_EQ(arcs[5].relay, 2);
  EXPECT_EQ(arcs[6].relay, 4);  // 3 is the destination, skipped
  EXPECT_EQ(arcs.back().relay, 24);
}

// --- the alternate-path policy's live behaviour -----------------------------

TEST(AlternatePathPolicy, SwapsToBackupAfterNotification) {
  sim::Simulator simulator;
  net::ClusterNetwork network(simulator, {.node_count = 4, .backplane = {}});
  AlternatePathConfig config;
  config.notify_delay = 5_ms;
  AlternatePathPolicy policy(network, config);
  policy.start();
  simulator.run_for(100_ms);

  const auto nic = net::ClusterNetwork::nic_component(1, 0);
  network.set_component_failed(nic, true);
  policy.on_component_failed(nic);
  // Before the notification lands the policy still trusts the dead link.
  EXPECT_TRUE(policy.known_failed().empty());
  simulator.run_for(10_ms);
  ASSERT_EQ(policy.known_failed().size(), 1u);
  EXPECT_EQ(policy.known_failed().front(), nic);
  // One notification fan-out, charged through the uniform overhead hook.
  EXPECT_EQ(policy.control_messages(), 4u);

  // The swap is visible on the data plane: 0 reaches 1 despite the dead
  // primary NIC, over the precomputed alternate.
  bool reachable = false;
  policy.icmp(0).ping(net::cluster_ip(net::kNetworkA, 1), {},
                      [&reachable](const proto::PingResult& r) {
                        reachable = r.success;
                      });
  simulator.run_for(1_s);
  EXPECT_TRUE(reachable);

  // Restoration swaps back and is charged the same way.
  network.set_component_failed(nic, false);
  policy.on_component_restored(nic);
  simulator.run_for(10_ms);
  EXPECT_TRUE(policy.known_failed().empty());
  EXPECT_EQ(policy.control_messages(), 8u);
  policy.stop();
}

TEST(StaticResilientPolicy, PreSeededFailureVisibleAtStart) {
  // static_resilient resolves at start() against the already-failed NIC:
  // 0 -> 1 must come up routed over network B with zero protocol traffic.
  sim::Simulator simulator;
  net::ClusterNetwork network(simulator, {.node_count = 4, .backplane = {}});
  StaticResilientPolicy policy(network, StaticResilientConfig{});
  network.set_component_failed(net::ClusterNetwork::nic_component(1, 0), true);
  policy.start();
  simulator.run_for(1_s);
  bool reachable = false;
  policy.icmp(0).ping(net::cluster_ip(net::kNetworkA, 1), {},
                      [&reachable](const proto::PingResult& r) {
                        reachable = r.success;
                      });
  simulator.run_for(1_s);
  EXPECT_TRUE(reachable);
  EXPECT_EQ(policy.control_messages(), 0u);
}

}  // namespace
}  // namespace drs::policy
