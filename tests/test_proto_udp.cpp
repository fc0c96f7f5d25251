#include "proto/udp.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"

namespace drs::proto {
namespace {

using namespace drs::util::literals;

class UdpTest : public ::testing::Test {
 protected:
  UdpTest() : network(sim, {.node_count = 3, .backplane = {}}) {
    for (net::NodeId i = 0; i < 3; ++i) {
      services.push_back(std::make_unique<UdpService>(network.host(i)));
    }
  }
  sim::Simulator sim;
  net::ClusterNetwork network;
  std::vector<std::unique_ptr<UdpService>> services;
};

TEST_F(UdpTest, DatagramDeliversToBoundPort) {
  UdpDatagram received;
  std::string message;
  services[1]->open(2000, [&](const UdpDatagram& d) {
    received = d;
    message = *std::any_cast<std::string>(d.message);
  });
  services[0]->send(net::cluster_ip(0, 1), 2000, 1234, 64, std::string("hello"));
  sim.run();
  EXPECT_EQ(message, "hello");
  EXPECT_EQ(received.src, net::cluster_ip(0, 0));
  EXPECT_EQ(received.src_port, 1234);
  EXPECT_EQ(received.dst_port, 2000);
  EXPECT_EQ(received.data_bytes, 64u);
  EXPECT_EQ(services[1]->delivered(), 1u);
}

TEST_F(UdpTest, UnboundPortCountsAndDrops) {
  services[0]->send(net::cluster_ip(0, 1), 2000, 1, 8);
  sim.run();
  EXPECT_EQ(services[1]->delivered(), 0u);
  EXPECT_EQ(services[1]->no_port(), 1u);
}

TEST_F(UdpTest, PortDemuxSeparatesHandlers) {
  int port_a = 0, port_b = 0;
  services[1]->open(1000, [&](const UdpDatagram&) { ++port_a; });
  services[1]->open(1001, [&](const UdpDatagram&) { ++port_b; });
  services[0]->send(net::cluster_ip(0, 1), 1000, 1, 8);
  services[0]->send(net::cluster_ip(0, 1), 1001, 1, 8);
  services[0]->send(net::cluster_ip(0, 1), 1001, 1, 8);
  sim.run();
  EXPECT_EQ(port_a, 1);
  EXPECT_EQ(port_b, 2);
}

TEST_F(UdpTest, ReplyUsingDatagramSource) {
  // Classic request/reply flow across both subnets.
  services[1]->open(2000, [&](const UdpDatagram& d) {
    services[1]->send(d.src, d.src_port, d.dst_port, 16, std::string("pong"));
  });
  std::string got;
  services[0]->open(3000, [&](const UdpDatagram& d) {
    got = *std::any_cast<std::string>(d.message);
  });
  services[0]->send(net::cluster_ip(1, 1), 2000, 3000, 16, std::string("ping"));
  sim.run();
  EXPECT_EQ(got, "pong");
}

TEST_F(UdpTest, WireSizeIncludesUdpHeader) {
  UdpPayload payload;
  payload.data_bytes = 100;
  EXPECT_EQ(payload.wire_size(), 108u);  // RFC 768: 8-byte header
  services[0]->send(net::cluster_ip(0, 1), 1, 1, 100);
  sim.run();
  // 14 eth + 20 ip + 8 udp + 100 data + 4 fcs = 146 bytes
  EXPECT_EQ(network.host(0).nic(0).counters().tx_bytes, 146u);
}

TEST_F(UdpTest, SendOverDeadPathReturnsTrueButDoesNotDeliver) {
  // UDP is fire-and-forget: local send succeeds, the frame dies on the
  // medium.
  network.backplane(0).set_failed(true);
  int count = 0;
  services[1]->open(1000, [&](const UdpDatagram&) { ++count; });
  EXPECT_TRUE(services[0]->send(net::cluster_ip(0, 1), 1000, 1, 8));
  sim.run();
  EXPECT_EQ(count, 0);
}

}  // namespace
}  // namespace drs::proto
