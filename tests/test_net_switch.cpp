// Switched-backplane medium: store-and-forward, per-port queues, full
// duplex. The modern-hardware extension of the paper's hub substrate.
#include <gtest/gtest.h>

#include "core/system.hpp"
#include "cost/cost_model.hpp"
#include "net/network.hpp"
#include "proto/icmp.hpp"

namespace drs::net {
namespace {

using namespace drs::util::literals;

struct FixedPayload final : Payload {
  std::uint32_t size;
  explicit FixedPayload(std::uint32_t s) : size(s) {}
  std::uint32_t wire_size() const override { return size; }
};

struct RecordingSink final : FrameSink {
  struct Arrival {
    NetworkId ifindex;
    util::SimTime at;
    std::uint64_t packet_id;
  };
  std::vector<Arrival> arrivals;
  sim::Simulator* sim = nullptr;
  void on_frame(NetworkId ifindex, const Frame& frame) override {
    arrivals.push_back({ifindex, sim->now(), frame.packet.id});
  }
};

Frame make_frame(MacAddr src, MacAddr dst, std::uint32_t payload_bytes,
                 std::uint64_t id = 0) {
  Frame f;
  f.src = src;
  f.dst = dst;
  f.packet.payload = std::make_shared<FixedPayload>(payload_bytes);
  f.packet.id = id;
  return f;
}

class SwitchTest : public ::testing::Test {
 protected:
  SwitchTest() {
    Backplane::Config config;
    config.kind = MediumKind::kSwitch;
    config.bits_per_second = 100e6;
    config.propagation_delay = util::Duration::zero();
    backplane = std::make_unique<Backplane>(sim, 0, config);
    for (int i = 0; i < 4; ++i) {
      sinks[i].sim = &sim;
      nics.push_back(std::make_unique<Nic>(
          static_cast<NodeId>(i), 0, cluster_mac(0, static_cast<NodeId>(i)),
          cluster_ip(0, static_cast<NodeId>(i)), sinks[i]));
      backplane->attach(*nics.back());
    }
  }

  sim::Simulator sim;
  std::unique_ptr<Backplane> backplane;
  RecordingSink sinks[4];
  std::vector<std::unique_ptr<Nic>> nics;
};

TEST_F(SwitchTest, UnicastReachesOnlyTheAddressee) {
  nics[0]->send(make_frame(nics[0]->mac(), nics[1]->mac(), 100, 7));
  sim.run();
  ASSERT_EQ(sinks[1].arrivals.size(), 1u);
  // A switch forwards unicast to one port: the third party never sees it
  // (unlike the hub, where the MAC filter did the discarding).
  EXPECT_TRUE(sinks[2].arrivals.empty());
  EXPECT_EQ(nics[2]->counters().rx_filtered, 0u);
}

TEST_F(SwitchTest, StoreAndForwardDoublesSerialization) {
  // Minimum frame, 100 Mb/s: 5.12 us in, 5.12 us out, no propagation.
  nics[0]->send(make_frame(nics[0]->mac(), nics[1]->mac(), 0));
  sim.run();
  ASSERT_EQ(sinks[1].arrivals.size(), 1u);
  EXPECT_EQ(sinks[1].arrivals[0].at.ns(), 2 * 5'120);
}

TEST_F(SwitchTest, DisjointPairsDoNotContend) {
  // 0->1 and 2->3 simultaneously: on a hub the second would queue behind the
  // first; on a switch both complete in one store-and-forward time.
  nics[0]->send(make_frame(nics[0]->mac(), nics[1]->mac(), 0, 1));
  nics[2]->send(make_frame(nics[2]->mac(), nics[3]->mac(), 0, 2));
  sim.run();
  ASSERT_EQ(sinks[1].arrivals.size(), 1u);
  ASSERT_EQ(sinks[3].arrivals.size(), 1u);
  EXPECT_EQ(sinks[1].arrivals[0].at.ns(), 2 * 5'120);
  EXPECT_EQ(sinks[3].arrivals[0].at.ns(), 2 * 5'120);
}

TEST_F(SwitchTest, SharedEgressPortSerializes) {
  // 0->2 and 1->2: ingress in parallel, egress port of node 2 serializes.
  nics[0]->send(make_frame(nics[0]->mac(), nics[2]->mac(), 0, 1));
  nics[1]->send(make_frame(nics[1]->mac(), nics[2]->mac(), 0, 2));
  sim.run();
  ASSERT_EQ(sinks[2].arrivals.size(), 2u);
  EXPECT_EQ(sinks[2].arrivals[0].at.ns(), 2 * 5'120);
  EXPECT_EQ(sinks[2].arrivals[1].at.ns(), 3 * 5'120);
}

TEST_F(SwitchTest, BroadcastReplicatesToEveryPort) {
  nics[0]->send(make_frame(nics[0]->mac(), MacAddr::broadcast(), 0));
  sim.run();
  EXPECT_EQ(sinks[1].arrivals.size(), 1u);
  EXPECT_EQ(sinks[2].arrivals.size(), 1u);
  EXPECT_EQ(sinks[3].arrivals.size(), 1u);
  EXPECT_TRUE(sinks[0].arrivals.empty());
}

TEST_F(SwitchTest, FailureDropsAndRestoreClearsPorts) {
  backplane->set_failed(true);
  nics[0]->send(make_frame(nics[0]->mac(), nics[1]->mac(), 0));
  sim.run();
  EXPECT_TRUE(sinks[1].arrivals.empty());
  EXPECT_EQ(backplane->counters().dropped_failed, 1u);
  backplane->set_failed(false);
  nics[0]->send(make_frame(nics[0]->mac(), nics[1]->mac(), 0));
  sim.run();
  EXPECT_EQ(sinks[1].arrivals.size(), 1u);
}

// --- Full stack on a switched cluster ------------------------------------------

TEST(SwitchedCluster, DrsFailoverWorksUnchanged) {
  sim::Simulator sim;
  ClusterNetwork::Config net_config;
  net_config.node_count = 6;
  net_config.backplane.kind = MediumKind::kSwitch;
  ClusterNetwork network(sim, net_config);
  core::DrsConfig drs_config;
  drs_config.probe_interval = 50_ms;
  drs_config.probe_timeout = 20_ms;
  core::DrsSystem system(network, drs_config);
  system.start();
  system.settle(500_ms);
  ASSERT_TRUE(system.test_reachability(0, 1));
  network.set_component_failed(ClusterNetwork::nic_component(0, 1), true);
  network.set_component_failed(ClusterNetwork::nic_component(1, 0), true);
  system.settle(1_s);
  EXPECT_EQ(system.daemon(0).peer_mode(1), core::PeerRouteMode::kRelay);
  EXPECT_TRUE(system.test_reachability(0, 1));
}

TEST(SwitchedCostModel, ResponseTimeIsLinearInNodes) {
  cost::CostModel model;
  model.medium = MediumKind::kSwitch;
  const double t30 = model.response_time_seconds(30, 0.10);
  const double t60 = model.response_time_seconds(60, 0.10);
  // 2*(60-1) / (2*(30-1)) = 2.034...
  EXPECT_NEAR(t60 / t30, 59.0 / 29.0, 1e-9);
  // And the hub is quadratic: the same doubling costs ~4x.
  cost::CostModel hub;
  EXPECT_NEAR(hub.response_time_seconds(60, 0.10) /
                  hub.response_time_seconds(30, 0.10),
              (60.0 * 59) / (30.0 * 29), 1e-9);
}

TEST(SwitchedCostModel, NinetyHostAnchorGetsTwentyTimesCheaper) {
  cost::CostModel hub;
  cost::CostModel switched;
  switched.medium = MediumKind::kSwitch;
  // Per-port load is 1/N of the shared-medium load.
  EXPECT_NEAR(hub.response_time_seconds(90, 0.10) /
                  switched.response_time_seconds(90, 0.10),
              90.0, 1e-9);
  EXPECT_LT(switched.response_time_seconds(90, 0.10), 0.01);
}

TEST(SwitchedCostModel, MeasuredUtilizationMatchesPerPortModel) {
  cost::CostModel model;
  model.medium = MediumKind::kSwitch;
  const double predicted = model.utilization(8, 100_ms);
  const auto measured = cost::measure_cycle(8, 100_ms, 5, model);
  EXPECT_NEAR(measured.utilization_network_a, predicted, predicted * 0.05);
  EXPECT_EQ(measured.probes_failed, 0u);
}

TEST(SwitchedCostModel, SupportsFarLargerClusters) {
  cost::CostModel hub;
  cost::CostModel switched;
  switched.medium = MediumKind::kSwitch;
  const auto hub_max = hub.max_nodes(0.10, 1.0);
  const auto switch_max = switched.max_nodes(0.10, 1.0);
  EXPECT_GT(switch_max, hub_max * 10);
}

}  // namespace
}  // namespace drs::net
