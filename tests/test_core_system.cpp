#include "core/system.hpp"

#include <gtest/gtest.h>

#include "analytic/enumerate.hpp"
#include "net/failure.hpp"

namespace drs::core {
namespace {

using namespace drs::util::literals;

DrsConfig fast_config() {
  DrsConfig c;
  c.probe_interval = 50_ms;
  c.probe_timeout = 20_ms;
  c.failures_to_down = 2;
  c.discover_timeout = 25_ms;
  return c;
}

TEST(DrsSystem, BuildsOneDaemonPerHost) {
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 5, .backplane = {}});
  DrsSystem system(network, fast_config());
  EXPECT_EQ(system.node_count(), 5);
  for (net::NodeId i = 0; i < 5; ++i) {
    EXPECT_EQ(system.daemon(i).self(), i);
    EXPECT_FALSE(system.daemon(i).running());
  }
  system.start();
  for (net::NodeId i = 0; i < 5; ++i) EXPECT_TRUE(system.daemon(i).running());
}

TEST(DrsSystem, AggregateCountersAccumulate) {
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 4, .backplane = {}});
  DrsSystem system(network, fast_config());
  system.start();
  system.settle(500_ms);
  // 4 nodes x 3 peers x 2 networks per 50 ms cycle, ~10 cycles.
  EXPECT_GT(system.total_probes_sent(), 4u * 3 * 2 * 5);
  EXPECT_EQ(system.total_route_installs(), 0u);  // healthy cluster
}

TEST(DrsSystem, ReachabilityMatrixHealthy) {
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 4, .backplane = {}});
  DrsSystem system(network, fast_config());
  system.start();
  system.settle(300_ms);
  for (net::NodeId a = 0; a < 4; ++a) {
    for (net::NodeId b = 0; b < 4; ++b) {
      if (a == b) continue;
      EXPECT_TRUE(system.test_reachability(a, b)) << a << "->" << b;
    }
  }
}

// Property sweep: under ANY single component failure, every pair of live
// nodes stays mutually reachable once DRS converges — the paper's f=1
// guarantee, exercised at packet level component by component.
class SingleFailureSweep : public ::testing::TestWithParam<int> {};

TEST_P(SingleFailureSweep, AllPairsSurviveAnySingleComponentFailure) {
  const auto component = static_cast<net::ComponentIndex>(GetParam());
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 5, .backplane = {}});
  DrsSystem system(network, fast_config());
  system.start();
  system.settle(200_ms);
  network.set_component_failed(component, true);
  system.settle(600_ms);
  for (net::NodeId a = 0; a < 5; ++a) {
    for (net::NodeId b = 0; b < 5; ++b) {
      if (a == b) continue;
      EXPECT_TRUE(system.test_reachability(a, b))
          << a << "->" << b << " with "
          << network.component(component).to_string() << " failed";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EveryComponent, SingleFailureSweep,
                         ::testing::Range(0, 12));  // 2*5+2 components

// Property sweep: for every two-component failure pattern on a 4-node
// cluster, packet-level reachability of pair (0,1) equals the analytic
// predicate. Exhaustive, not sampled: C(10,2) = 45 patterns.
class DoubleFailureExhaustive
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(DoubleFailureExhaustive, PairReachabilityMatchesModel) {
  const auto [c1, c2] = GetParam();
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 4, .backplane = {}});
  DrsSystem system(network, fast_config());
  system.start();
  system.settle(200_ms);
  network.set_component_failed(static_cast<net::ComponentIndex>(c1), true);
  network.set_component_failed(static_cast<net::ComponentIndex>(c2), true);
  system.settle(800_ms);

  analytic::ComponentSet failed;
  failed.set(c1);
  failed.set(c2);
  const bool expected = analytic::pair_connected(4, failed, 0, 1);
  EXPECT_EQ(system.test_reachability(0, 1), expected)
      << "components " << c1 << "," << c2;
}

std::vector<std::pair<int, int>> all_pairs_of_components() {
  std::vector<std::pair<int, int>> pairs;
  for (int a = 0; a < 10; ++a) {
    for (int b = a + 1; b < 10; ++b) pairs.emplace_back(a, b);
  }
  return pairs;
}

INSTANTIATE_TEST_SUITE_P(Exhaustive, DoubleFailureExhaustive,
                         ::testing::ValuesIn(all_pairs_of_components()));

// Exhaustive three-component sweep on the same 4-node cluster: C(10,3) = 120
// patterns, each checked against the analytic predicate at packet level.
class TripleFailureExhaustive
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TripleFailureExhaustive, PairReachabilityMatchesModel) {
  const auto [c1, c2, c3] = GetParam();
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 4, .backplane = {}});
  DrsSystem system(network, fast_config());
  system.start();
  system.settle(200_ms);
  for (int c : {c1, c2, c3}) {
    network.set_component_failed(static_cast<net::ComponentIndex>(c), true);
  }
  system.settle(800_ms);

  analytic::ComponentSet failed;
  failed.set(c1);
  failed.set(c2);
  failed.set(c3);
  const bool expected = analytic::pair_connected(4, failed, 0, 1);
  EXPECT_EQ(system.test_reachability(0, 1), expected)
      << "components " << c1 << "," << c2 << "," << c3;
}

std::vector<std::tuple<int, int, int>> all_triples_of_components() {
  std::vector<std::tuple<int, int, int>> triples;
  for (int a = 0; a < 10; ++a) {
    for (int b = a + 1; b < 10; ++b) {
      for (int c = b + 1; c < 10; ++c) triples.emplace_back(a, b, c);
    }
  }
  return triples;
}

INSTANTIATE_TEST_SUITE_P(Exhaustive, TripleFailureExhaustive,
                         ::testing::ValuesIn(all_triples_of_components()));

TEST(DrsSystem, StopHaltsProbing) {
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 3, .backplane = {}});
  DrsSystem system(network, fast_config());
  system.start();
  system.settle(300_ms);
  system.stop();
  const auto probes = system.total_probes_sent();
  system.settle(300_ms);
  EXPECT_EQ(system.total_probes_sent(), probes);
}

TEST(DrsSystem, SweepSendsCostOneEventPerSpreadOffsetPerSystem) {
  // A healthy N=8 cluster on the default 100 ms cycle: each daemon sweeps
  // 14 (peer, network) entries at 14 distinct spread offsets. The daemons
  // start together, so they share every offset, and the system's probe
  // scheduler sends all of an offset's probes from one event. Ten cycles
  // after warm-up execute exactly
  //       80 cycle ticks (8 daemons x 10 cycles)
  //   +  140 send firings (14 offsets x 10 cycles, one per system)
  //   + 2240 frame deliveries (1120 echoes and their replies)
  //   +   23 timeout-scan firings
  //   = 2483 events.
  // One sweep-cursor event per daemon per offset would add
  // 10 x 14 x (8 - 1) = 980.
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 8, .backplane = {}});
  DrsSystem system(network, DrsConfig{});
  const auto frames = [&] {
    return network.backplane(net::kNetworkA).counters().frames +
           network.backplane(net::kNetworkB).counters().frames;
  };
  system.start();
  system.settle(1_s);
  const std::uint64_t events = sim.executed_events();
  const std::uint64_t probes = system.total_probes_sent();
  const std::uint64_t frames_before = frames();
  system.settle(1_s);
  EXPECT_EQ(system.total_probes_sent() - probes, 1120u);
  EXPECT_EQ(frames() - frames_before, 2240u);
  EXPECT_EQ(sim.executed_events() - events, 2483u);
}

TEST(DrsSystem, SteadyStateHasZeroRoutingChurn) {
  // A healthy cluster must not touch its routing tables at all: probing is
  // read-only until a verdict changes. Guards against accidental
  // install/remove cycles in sync_routes.
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 6, .backplane = {}});
  DrsSystem system(network, fast_config());
  system.start();
  system.settle(500_ms);
  std::vector<std::uint64_t> versions;
  for (net::NodeId i = 0; i < 6; ++i) {
    versions.push_back(network.host(i).routing_table().version());
  }
  system.settle(5_s);
  for (net::NodeId i = 0; i < 6; ++i) {
    EXPECT_EQ(network.host(i).routing_table().version(), versions[i])
        << "node " << i << " churned its routing table while healthy";
    EXPECT_EQ(system.daemon(i).metrics().route_changes, 0u);
  }
}

TEST(DrsSystem, ClusterPastNode253ProbesCleanly) {
  // Node 254 and up get addresses on the next third octet. When the last
  // octet wrapped instead, node 254 held the subnet broadcast, node 255 the
  // network address and node 256 node 0's address, and most probes of a
  // 300-node cluster went unanswered.
  constexpr std::uint16_t kNodes = 300;
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = kNodes, .backplane = {}});
  DrsConfig config;
  config.probe_interval = 4_s;
  DrsSystem system(network, config);
  system.start();
  system.settle(9_s);  // two full monitoring cycles and part of a third
  const std::uint64_t per_cycle = 2u * kNodes * (kNodes - 1u);
  EXPECT_GE(system.total_probes_sent(), 2 * per_cycle);
  std::uint64_t failed = 0;
  for (net::NodeId i = 0; i < kNodes; ++i) {
    failed += system.daemon(i).metrics().probes_failed;
  }
  EXPECT_EQ(failed, 0u);
  EXPECT_TRUE(system.all_pristine());
}

TEST(DrsSystem, ControlTrafficOnlyUnderFailures) {
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 4, .backplane = {}});
  DrsSystem system(network, fast_config());
  system.start();
  system.settle(1_s);
  EXPECT_EQ(system.total_control_messages(), 0u);  // healthy: silence
  network.set_component_failed(net::ClusterNetwork::nic_component(0, 1), true);
  network.set_component_failed(net::ClusterNetwork::nic_component(1, 0), true);
  system.settle(1_s);
  EXPECT_GT(system.total_control_messages(), 0u);
}

}  // namespace
}  // namespace drs::core
