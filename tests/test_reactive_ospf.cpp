#include "reactive/ospf_lite.hpp"

#include <gtest/gtest.h>

#include "analytic/enumerate.hpp"
#include "proto/icmp.hpp"

namespace drs::reactive {
namespace {

using namespace drs::util::literals;

OspfConfig fast_ospf() {
  // RFC proportions (dead = 4 x hello) scaled 1:20 so tests run in seconds.
  OspfConfig c;
  c.hello_interval = 500_ms;
  c.dead_interval = 2_s;
  c.lsa_refresh = 1500_ms;
  return c;
}

class OspfTest : public ::testing::Test {
 protected:
  OspfTest() : network(sim, {.node_count = 5, .backplane = {}}) {
    for (net::NodeId i = 0; i < 5; ++i) {
      icmp.push_back(std::make_unique<proto::IcmpService>(network.host(i)));
    }
  }

  bool ping(net::NodeId from, net::Ipv4Addr to) {
    bool ok = false;
    bool done = false;
    proto::PingOptions options;
    options.timeout = 50_ms;
    icmp[from]->ping(to, options, [&](const proto::PingResult& r) {
      ok = r.success;
      done = true;
    });
    const auto deadline = sim.now() + 100_ms;
    while (!done && sim.now() < deadline && !sim.idle()) sim.step();
    return ok;
  }

  sim::Simulator sim;
  net::ClusterNetwork network;
  std::vector<std::unique_ptr<proto::IcmpService>> icmp;
};

TEST_F(OspfTest, HellosBuildFullAdjacency) {
  OspfSystem ospf(network, fast_ospf());
  ospf.start();
  sim.run_for(2_s);
  for (net::NodeId i = 0; i < 5; ++i) {
    for (net::NodeId j = 0; j < 5; ++j) {
      if (i == j) continue;
      EXPECT_TRUE(ospf.daemon(i).adjacent(j, 0)) << i << "-" << j;
      EXPECT_TRUE(ospf.daemon(i).adjacent(j, 1)) << i << "-" << j;
    }
    // LSDB has everyone (own entry included).
    EXPECT_EQ(ospf.daemon(i).lsdb_size(), 5u);
  }
}

TEST_F(OspfTest, HealthyClusterInstallsNoHostRoutes) {
  OspfSystem ospf(network, fast_ospf());
  ospf.start();
  sim.run_for(3_s);
  for (net::NodeId i = 0; i < 5; ++i) {
    for (const auto& route : network.host(i).routing_table().routes()) {
      EXPECT_NE(route.origin, net::RouteOrigin::kOspf) << route.prefix.to_string();
    }
  }
}

TEST_F(OspfTest, NicFailureReroutesAfterDeadInterval) {
  OspfSystem ospf(network, fast_ospf());
  ospf.start();
  sim.run_for(2_s);
  ASSERT_TRUE(ping(0, net::cluster_ip(0, 1)));

  network.set_component_failed(net::ClusterNetwork::nic_component(1, 0), true);
  // Inside the dead interval: nothing has reacted; the path is black-holed.
  sim.run_for(500_ms);
  EXPECT_FALSE(ping(0, net::cluster_ip(0, 1)));
  // After dead interval + hello slack: the /32 via network B is installed.
  sim.run_for(fast_ospf().dead_interval + 2 * fast_ospf().hello_interval);
  EXPECT_TRUE(ping(0, net::cluster_ip(0, 1)));
  const auto route = network.host(0).routing_table().lookup(net::cluster_ip(0, 1));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->origin, net::RouteOrigin::kOspf);
  EXPECT_EQ(route->out_ifindex, 1);
  EXPECT_GT(ospf.daemon(0).metrics().neighbors_lost, 0u);
}

TEST_F(OspfTest, CrossSplitUsesRelayViaLsdb) {
  OspfSystem ospf(network, fast_ospf());
  ospf.start();
  sim.run_for(2_s);
  network.set_component_failed(net::ClusterNetwork::nic_component(0, 1), true);
  network.set_component_failed(net::ClusterNetwork::nic_component(1, 0), true);
  sim.run_for(fast_ospf().dead_interval + 3 * fast_ospf().hello_interval);
  EXPECT_TRUE(ping(0, net::cluster_ip(0, 1)));
  const auto route = network.host(0).routing_table().lookup(net::cluster_ip(0, 1));
  ASSERT_TRUE(route.has_value());
  // Relay route: next hop is some third node's address, metric 3.
  EXPECT_EQ(route->metric, 3);
  net::NetworkId relay_net;
  net::NodeId relay_node;
  ASSERT_TRUE(net::parse_cluster_ip(route->next_hop, relay_net, relay_node));
  EXPECT_NE(relay_node, 0);
  EXPECT_NE(relay_node, 1);
}

TEST_F(OspfTest, RecoveryRemovesHostRoutes) {
  OspfSystem ospf(network, fast_ospf());
  ospf.start();
  sim.run_for(2_s);
  network.set_component_failed(net::ClusterNetwork::nic_component(1, 0), true);
  sim.run_for(fast_ospf().dead_interval + 2 * fast_ospf().hello_interval);
  ASSERT_TRUE(network.host(0).routing_table().lookup(net::cluster_ip(0, 1))
                  ->origin == net::RouteOrigin::kOspf);

  network.heal_all();
  sim.run_for(3 * fast_ospf().hello_interval);
  const auto route = network.host(0).routing_table().lookup(net::cluster_ip(0, 1));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->origin, net::RouteOrigin::kStatic);  // subnet route again
}

TEST_F(OspfTest, DetectionIsDeadIntervalBound) {
  // The structural difference from DRS: reaction time tracks dead_interval.
  OspfConfig slow = fast_ospf();
  slow.hello_interval = 1_s;
  slow.dead_interval = 4_s;
  OspfSystem ospf(network, slow);
  ospf.start();
  sim.run_for(3_s);
  network.set_component_failed(net::ClusterNetwork::nic_component(1, 0), true);
  sim.run_for(2_s);  // half the dead interval
  EXPECT_FALSE(ping(0, net::cluster_ip(0, 1)));
  sim.run_for(4_s);
  EXPECT_TRUE(ping(0, net::cluster_ip(0, 1)));
}

TEST_F(OspfTest, LsaSequenceGuardsAgainstStaleFloods) {
  OspfSystem ospf(network, fast_ospf());
  ospf.start();
  sim.run_for(2_s);
  const auto flooded_before = ospf.daemon(2).metrics().lsas_flooded;
  // Steady state: refresh LSAs keep flowing, each flooded at most once per
  // receiver (no exponential re-flooding).
  sim.run_for(3_s);
  const auto flooded_after = ospf.daemon(2).metrics().lsas_flooded;
  // 4 peers x 2 refreshes in 3 s at 1.5 s cadence = ~8 useful floods; allow
  // generous headroom but catch a flood storm (which would be thousands).
  EXPECT_LT(flooded_after - flooded_before, 40u);
}

TEST_F(OspfTest, StopsCleanly) {
  OspfSystem ospf(network, fast_ospf());
  ospf.start();
  sim.run_for(2_s);
  ospf.stop();
  const auto sent = ospf.daemon(0).metrics().hellos_sent;
  sim.run_for(3_s);
  EXPECT_EQ(ospf.daemon(0).metrics().hellos_sent, sent);
}

// Exhaustive double-failure sweep: once converged, OSPF-lite must achieve
// exactly the connectivity the survivability model credits a
// direct-or-one-relay protocol with — same predicate as DRS, only the
// convergence clock differs (dead interval vs probe cycle).
class OspfDoubleFailure
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(OspfDoubleFailure, SteadyStateMatchesSurvivabilityModel) {
  const auto [c1, c2] = GetParam();
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 4, .backplane = {}});
  std::vector<std::unique_ptr<proto::IcmpService>> icmp;
  for (net::NodeId i = 0; i < 4; ++i) {
    icmp.push_back(std::make_unique<proto::IcmpService>(network.host(i)));
  }
  OspfConfig config;
  config.hello_interval = 200_ms;
  config.dead_interval = 800_ms;
  config.lsa_refresh = 600_ms;
  OspfSystem ospf(network, config);
  ospf.start();
  sim.run_for(2_s);
  network.set_component_failed(static_cast<net::ComponentIndex>(c1), true);
  network.set_component_failed(static_cast<net::ComponentIndex>(c2), true);
  sim.run_for(config.dead_interval + 6 * config.hello_interval + 1_s);

  analytic::ComponentSet failed;
  failed.set(c1);
  failed.set(c2);
  const bool expected = analytic::pair_connected(4, failed, 0, 1);

  bool reachable = false;
  bool done = false;
  proto::PingOptions options;
  options.timeout = 50_ms;
  icmp[0]->ping(net::cluster_ip(0, 1), options, [&](const proto::PingResult& r) {
    reachable = r.success;
    done = true;
  });
  const auto deadline = sim.now() + 100_ms;
  while (!done && sim.now() < deadline && !sim.idle()) sim.step();
  EXPECT_EQ(reachable, expected) << "components " << c1 << "," << c2;
}

std::vector<std::pair<int, int>> ospf_component_pairs() {
  std::vector<std::pair<int, int>> pairs;
  for (int a = 0; a < 10; ++a) {
    for (int b = a + 1; b < 10; ++b) pairs.emplace_back(a, b);
  }
  return pairs;
}

INSTANTIATE_TEST_SUITE_P(Exhaustive, OspfDoubleFailure,
                         ::testing::ValuesIn(ospf_component_pairs()));

TEST(OspfPayloads, SizesAndDescriptions) {
  OspfHello hello;
  hello.advertiser = 3;
  EXPECT_EQ(hello.wire_size(), 44u);
  OspfLsa lsa;
  lsa.origin = 2;
  lsa.sequence = 9;
  EXPECT_EQ(lsa.wire_size(), 36u);
}

}  // namespace
}  // namespace drs::reactive
