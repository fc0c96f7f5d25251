#include "reactive/rip_lite.hpp"

#include <gtest/gtest.h>

#include "proto/icmp.hpp"

namespace drs::reactive {
namespace {

using namespace drs::util::literals;

RipConfig fast_rip() {
  // Scaled-down classic RIP: 1 s advertisements, 6 s timeout (30/180
  // divided by 30) so tests run quickly with the same structure.
  RipConfig c;
  c.advertise_interval = 1_s;
  c.route_timeout = 6_s;
  return c;
}

class RipTest : public ::testing::Test {
 protected:
  RipTest() : network(sim, {.node_count = 4, .backplane = {}}) {
    for (net::NodeId i = 0; i < 4; ++i) {
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

TEST_F(RipTest, LearnsHostRoutesFromAdvertisements) {
  RipSystem rip(network, fast_rip());
  rip.start();
  sim.run_for(3_s);
  // Every node should have learned /32 routes for every other node's
  // addresses (2 addresses x 3 peers).
  EXPECT_EQ(rip.daemon(0).table_size(), 6u);
  EXPECT_GT(rip.daemon(0).metrics().advertisements_received, 0u);
  const auto route = network.host(0).routing_table().lookup(net::cluster_ip(0, 2));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->prefix_len, 32);
  EXPECT_EQ(route->origin, net::RouteOrigin::kRip);
}

TEST_F(RipTest, RoutesExpireWithoutRefresh) {
  RipSystem rip(network, fast_rip());
  rip.start();
  sim.run_for(3_s);
  ASSERT_EQ(rip.daemon(0).table_size(), 6u);
  // Node 3 goes completely silent (both NICs dead).
  network.set_component_failed(net::ClusterNetwork::nic_component(3, 0), true);
  network.set_component_failed(net::ClusterNetwork::nic_component(3, 1), true);
  // Two full timeout windows: the direct entries expire first, and any
  // phantom metric-2 entries re-learned from a neighbour's not-yet-expired
  // table die in the second window.
  sim.run_for(fast_rip().route_timeout * 2 + 2_s);
  EXPECT_EQ(rip.daemon(0).table_size(), 4u);  // node 3's two addresses gone
  EXPECT_GE(rip.daemon(0).metrics().routes_expired, 2u);
}

TEST_F(RipTest, EventualFailoverAfterTimeout) {
  RipSystem rip(network, fast_rip());
  rip.start();
  sim.run_for(3_s);
  ASSERT_TRUE(ping(0, net::cluster_ip(0, 1)));

  network.set_component_failed(net::ClusterNetwork::nic_component(1, 0), true);
  // Immediately after: broken (RIP has not noticed anything).
  sim.run_for(100_ms);
  EXPECT_FALSE(ping(0, net::cluster_ip(0, 1)));
  // After the stale route expires, node 1's net-B advertisements provide an
  // alternative path for its net-A address.
  sim.run_for(fast_rip().route_timeout + 3 * fast_rip().advertise_interval);
  EXPECT_TRUE(ping(0, net::cluster_ip(0, 1)));
}

TEST_F(RipTest, RecoveryIsSlowerThanTimeoutWindow) {
  RipSystem rip(network, fast_rip());
  rip.start();
  sim.run_for(3_s);
  network.set_component_failed(net::ClusterNetwork::nic_component(1, 0), true);
  // Well inside the timeout window, the stale direct route still wins:
  // reactive protocols cannot fix what they have not timed out.
  sim.run_for(fast_rip().route_timeout / 2);
  EXPECT_FALSE(ping(0, net::cluster_ip(0, 1)));
}

TEST_F(RipTest, StopsCleanly) {
  RipSystem rip(network, fast_rip());
  rip.start();
  sim.run_for(2_s);
  rip.stop();
  const auto sent = rip.daemon(0).metrics().advertisements_sent;
  sim.run_for(5_s);
  EXPECT_EQ(rip.daemon(0).metrics().advertisements_sent, sent);
}

TEST(RipPayloadSize, TwentyBytesPerEntryPlusHeader) {
  RipPayload payload;
  EXPECT_EQ(payload.wire_size(), 4u);
  payload.entries.push_back({net::cluster_ip(0, 1), 1});
  payload.entries.push_back({net::cluster_ip(1, 1), 1});
  EXPECT_EQ(payload.wire_size(), 44u);
}

}  // namespace
}  // namespace drs::reactive
