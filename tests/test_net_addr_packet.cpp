#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/addr.hpp"
#include "net/packet.hpp"

namespace drs::net {
namespace {

TEST(Ipv4Addr, OctetsAndToString) {
  const Ipv4Addr a = Ipv4Addr::octets(10, 1, 0, 7);
  EXPECT_EQ(a.to_string(), "10.1.0.7");
  EXPECT_EQ(a.value(), 0x0A010007u);
  EXPECT_TRUE(Ipv4Addr{}.is_unspecified());
  EXPECT_FALSE(a.is_unspecified());
}

TEST(Ipv4Addr, PrefixMatching) {
  const Ipv4Addr a = Ipv4Addr::octets(10, 1, 0, 7);
  EXPECT_TRUE(a.in_prefix(Ipv4Addr::octets(10, 1, 0, 0), 24));
  EXPECT_FALSE(a.in_prefix(Ipv4Addr::octets(10, 2, 0, 0), 24));
  EXPECT_TRUE(a.in_prefix(Ipv4Addr::octets(10, 1, 0, 7), 32));
  EXPECT_FALSE(a.in_prefix(Ipv4Addr::octets(10, 1, 0, 8), 32));
  EXPECT_TRUE(a.in_prefix(Ipv4Addr{}, 0));  // default route matches all
}

TEST(MacAddr, Broadcast) {
  EXPECT_TRUE(MacAddr::broadcast().is_broadcast());
  EXPECT_FALSE(MacAddr(1).is_broadcast());
}

TEST(ClusterAddressing, PlanIsDisjointAcrossNetworks) {
  EXPECT_EQ(cluster_ip(0, 0).to_string(), "10.1.0.1");
  EXPECT_EQ(cluster_ip(1, 0).to_string(), "10.2.0.1");
  EXPECT_EQ(cluster_ip(0, 41).to_string(), "10.1.0.42");
  EXPECT_NE(cluster_ip(0, 5), cluster_ip(1, 5));
  EXPECT_TRUE(cluster_ip(0, 5).in_prefix(cluster_subnet(0), kClusterPrefixLen));
  EXPECT_FALSE(cluster_ip(0, 5).in_prefix(cluster_subnet(1), kClusterPrefixLen));
}

class ClusterIpRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ClusterIpRoundTrip, ParseInvertsFormat) {
  const auto network = static_cast<NetworkId>(std::get<0>(GetParam()));
  const auto node = static_cast<NodeId>(std::get<1>(GetParam()));
  NetworkId parsed_network = 99;
  NodeId parsed_node = 999;
  ASSERT_TRUE(parse_cluster_ip(cluster_ip(network, node), parsed_network, parsed_node));
  EXPECT_EQ(parsed_network, network);
  EXPECT_EQ(parsed_node, node);
}

INSTANTIATE_TEST_SUITE_P(AllCorners, ClusterIpRoundTrip,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(0, 1, 7, 63, 89,
                                                              253, 254, 255,
                                                              256, 65023)));

TEST(ClusterAddressing, ParseRejectsForeignAddresses) {
  NetworkId network;
  NodeId node;
  EXPECT_FALSE(parse_cluster_ip(Ipv4Addr::octets(192, 168, 0, 1), network, node));
  EXPECT_FALSE(parse_cluster_ip(Ipv4Addr::octets(10, 3, 0, 1), network, node));
  EXPECT_FALSE(parse_cluster_ip(Ipv4Addr::octets(10, 1, 0, 255), network, node));
  EXPECT_FALSE(parse_cluster_ip(Ipv4Addr::octets(10, 1, 0, 0), network, node));
}

TEST(ClusterAddressing, EveryNodeOwnsItsOwnHostAddress) {
  // Past node 253 the plan moves to the next third octet instead of
  // wrapping the last one: no two nodes share an address, and no node holds
  // the cluster broadcast or a .0 network address.
  EXPECT_EQ(cluster_ip(0, 253).to_string(), "10.1.0.254");
  EXPECT_EQ(cluster_ip(0, 254).to_string(), "10.1.1.1");
  EXPECT_EQ(cluster_ip(1, 256).to_string(), "10.2.1.3");
  EXPECT_EQ(cluster_ip(0, kMaxClusterNodes - 1).to_string(), "10.1.255.254");
  std::vector<bool> seen(std::size_t{1} << 16, false);
  for (std::uint32_t i = 0; i < kMaxClusterNodes; ++i) {
    const auto node = static_cast<NodeId>(i);
    const Ipv4Addr ip = cluster_ip(0, node);
    const std::uint32_t host_octet = ip.value() & 0xFFu;
    ASSERT_NE(host_octet, 0u) << "node " << i;
    ASSERT_NE(host_octet, 0xFFu) << "node " << i;
    ASSERT_TRUE(ip.in_prefix(cluster_subnet(0), kClusterPrefixLen));
    const std::uint32_t low = ip.value() & 0xFFFFu;
    ASSERT_FALSE(seen[low]) << "node " << i << " aliases " << ip.to_string();
    seen[low] = true;
    NetworkId parsed_network = 9;
    NodeId parsed_node = 0;
    ASSERT_TRUE(parse_cluster_ip(ip, parsed_network, parsed_node));
    ASSERT_EQ(parsed_network, 0);
    ASSERT_EQ(parsed_node, node);
  }
}

TEST(ClusterAddressing, MacsAreUniquePerNic) {
  EXPECT_NE(cluster_mac(0, 3), cluster_mac(1, 3));
  EXPECT_NE(cluster_mac(0, 3), cluster_mac(0, 4));
  EXPECT_FALSE(cluster_mac(0, 0).is_broadcast());
}

struct FixedPayload final : Payload {
  std::uint32_t size;
  explicit FixedPayload(std::uint32_t s) : size(s) {}
  std::uint32_t wire_size() const override { return size; }
};

TEST(Packet, IpSizeAddsHeader) {
  Packet p;
  p.payload = std::make_shared<FixedPayload>(100);
  EXPECT_EQ(p.ip_size(), 120u);
  Packet empty;
  EXPECT_EQ(empty.ip_size(), kIpHeaderBytes);
}

TEST(Frame, MinimumFrameEnforced) {
  Frame f;
  f.packet.payload = std::make_shared<FixedPayload>(8);  // echo header only
  // 14 + 20 + 8 + 4 = 46 < 64 minimum.
  EXPECT_EQ(f.wire_bytes(), kMinEthFrameBytes);
}

TEST(Frame, LargeFrameUsesRealSize) {
  Frame f;
  f.packet.payload = std::make_shared<FixedPayload>(1000);
  EXPECT_EQ(f.wire_bytes(), 14u + 20u + 1000u + 4u);
}

}  // namespace
}  // namespace drs::net
