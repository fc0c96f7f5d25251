#include "proto/icmp.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"

namespace drs::proto {
namespace {

using namespace drs::util::literals;

class IcmpTest : public ::testing::Test {
 protected:
  IcmpTest() : network(sim, {.node_count = 4, .backplane = {}}) {
    for (net::NodeId i = 0; i < 4; ++i) {
      services.push_back(std::make_unique<IcmpService>(network.host(i)));
    }
  }
  sim::Simulator sim;
  net::ClusterNetwork network;
  std::vector<std::unique_ptr<IcmpService>> services;
};

TEST_F(IcmpTest, EchoRoundTripSucceeds) {
  PingResult result;
  bool done = false;
  PingOptions options;
  options.timeout = 10_ms;
  services[0]->ping(net::cluster_ip(0, 1), options, [&](const PingResult& r) {
    result = r;
    done = true;
  });
  sim.run_for(20_ms);
  ASSERT_TRUE(done);
  EXPECT_TRUE(result.success);
  EXPECT_GT(result.rtt, util::Duration::zero());
  EXPECT_LT(result.rtt, 1_ms);
  EXPECT_EQ(services[1]->echo_requests_answered(), 1u);
  EXPECT_EQ(services[0]->probes_timed_out(), 0u);
}

TEST_F(IcmpTest, TimeoutFiresExactlyOnceOnDeadPath) {
  network.host(1).nic(0).set_failed(true);
  int callbacks = 0;
  bool success = true;
  PingOptions options;
  options.timeout = 10_ms;
  services[0]->ping(net::cluster_ip(0, 1), options, [&](const PingResult& r) {
    ++callbacks;
    success = r.success;
  });
  sim.run_for(50_ms);
  EXPECT_EQ(callbacks, 1);
  EXPECT_FALSE(success);
  EXPECT_EQ(services[0]->probes_timed_out(), 1u);
  EXPECT_EQ(services[0]->outstanding(), 0u);
}

TEST_F(IcmpTest, TimeoutWhenProbeDroppedLocally) {
  network.host(0).nic(0).set_failed(true);  // our own NIC is dead
  bool done = false;
  PingOptions options;
  options.timeout = 5_ms;
  options.via = net::NetworkId{0};
  services[0]->ping(net::cluster_ip(0, 1), options,
                    [&](const PingResult& r) { done = !r.success; });
  sim.run_for(10_ms);
  EXPECT_TRUE(done);
}

TEST_F(IcmpTest, ViaPinsTheInterface) {
  // Pin to network B even though routing would prefer A for an A-subnet
  // address? Use the B address pinned via B and verify counters.
  PingOptions options;
  options.timeout = 10_ms;
  options.via = net::NetworkId{1};
  bool success = false;
  services[0]->ping(net::cluster_ip(1, 2), options,
                    [&](const PingResult& r) { success = r.success; });
  sim.run_for(20_ms);
  EXPECT_TRUE(success);
  EXPECT_EQ(network.host(0).nic(1).counters().tx_frames, 1u);
  EXPECT_EQ(network.host(0).nic(0).counters().tx_frames, 0u);
}

TEST_F(IcmpTest, ViaDetectsSpecificLinkFailure) {
  // B's net-A NIC dies: the A-pinned probe must fail even though B is alive
  // on net B — this is exactly the DRS link check semantics.
  network.host(1).nic(0).set_failed(true);
  PingOptions options;
  options.timeout = 10_ms;
  bool a_ok = true, b_ok = false;
  options.via = net::NetworkId{0};
  services[0]->ping(net::cluster_ip(0, 1), options,
                    [&](const PingResult& r) { a_ok = r.success; });
  options.via = net::NetworkId{1};
  services[0]->ping(net::cluster_ip(1, 1), options,
                    [&](const PingResult& r) { b_ok = r.success; });
  sim.run_for(20_ms);
  EXPECT_FALSE(a_ok);
  EXPECT_TRUE(b_ok);
}

TEST_F(IcmpTest, ConcurrentProbesCorrelateBySeq) {
  int successes = 0;
  PingOptions options;
  options.timeout = 10_ms;
  for (int i = 0; i < 10; ++i) {
    services[0]->ping(net::cluster_ip(0, static_cast<net::NodeId>(1 + i % 3)),
                      options,
                      [&](const PingResult& r) { successes += r.success; });
  }
  EXPECT_EQ(services[0]->outstanding(), 10u);
  sim.run_for(20_ms);
  EXPECT_EQ(successes, 10);
  EXPECT_EQ(services[0]->outstanding(), 0u);
}

TEST_F(IcmpTest, CancelSuppressesCallback) {
  bool fired = false;
  PingOptions options;
  options.timeout = 10_ms;
  const std::uint16_t seq = services[0]->ping(
      net::cluster_ip(0, 1), options, [&](const PingResult&) { fired = true; });
  EXPECT_TRUE(services[0]->cancel(seq));
  EXPECT_FALSE(services[0]->cancel(seq));  // already gone
  sim.run_for(20_ms);
  EXPECT_FALSE(fired);
}

TEST_F(IcmpTest, LateReplyAfterTimeoutIsIgnored) {
  // Timeout shorter than the (serialization + propagation) round trip is
  // impossible here, so emulate lateness with a 0-tolerance timeout.
  PingOptions options;
  options.timeout = util::Duration::nanos(1);
  int callbacks = 0;
  bool success = true;
  services[0]->ping(net::cluster_ip(0, 1), options, [&](const PingResult& r) {
    ++callbacks;
    success = r.success;
  });
  sim.run_for(20_ms);
  EXPECT_EQ(callbacks, 1);
  EXPECT_FALSE(success);
}

TEST_F(IcmpTest, DataBytesGrowTheFrame) {
  PingOptions options;
  options.timeout = 10_ms;
  options.data_bytes = 1000;
  services[0]->ping(net::cluster_ip(0, 1), options, [](const PingResult&) {});
  sim.run_for(10_ms);
  // 14 + 20 + 8 + 1000 + 4 = 1046 bytes on the wire for the request.
  EXPECT_EQ(network.host(0).nic(0).counters().tx_bytes, 1046u);
}

TEST(IcmpPayload, DescribeAndSize) {
  IcmpPayload payload;
  payload.type = IcmpPayload::Type::kEchoRequest;
  payload.ident = 3;
  payload.seq = 9;
  EXPECT_EQ(payload.wire_size(), 8u);
  payload.data_bytes = 56;
  EXPECT_EQ(payload.wire_size(), 64u);
}

}  // namespace
}  // namespace drs::proto
