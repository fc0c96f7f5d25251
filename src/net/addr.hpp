// Addressing for the simulated cluster.
//
// The deployment the paper models is a closed server cluster: N dual-homed
// hosts on two non-meshed backplanes. Addresses follow that shape — network k
// (k = 0, 1) is the IPv4 subnet 10.(k+1).0.0/16 and node i owns host address
// 10.(k+1).(i / 254).(i % 254 + 1) on it, so nodes 0..253 sit at
// 10.(k+1).0.1 .. 10.(k+1).0.254 and the plan holds up to 254 * 256 nodes.
// No node gets a .0 or .255 last octet: 10.(k+1).0.255 is the cluster
// broadcast address. MACs are synthesized from (node, network).
#pragma once

#include <cstdint>
#include <string>

namespace drs::net {

/// Index of a host within the cluster (0-based).
using NodeId = std::uint16_t;

/// Index of one of the two redundant networks/backplanes.
using NetworkId = std::uint8_t;

inline constexpr NetworkId kNetworkA = 0;
inline constexpr NetworkId kNetworkB = 1;
inline constexpr int kNetworksPerHost = 2;

class Ipv4Addr {
 public:
  constexpr Ipv4Addr() = default;
  constexpr explicit Ipv4Addr(std::uint32_t value) : value_(value) {}
  static constexpr Ipv4Addr octets(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                                   std::uint8_t d) {
    return Ipv4Addr((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
                    (std::uint32_t{c} << 8) | std::uint32_t{d});
  }

  constexpr std::uint32_t value() const { return value_; }
  constexpr bool is_unspecified() const { return value_ == 0; }
  constexpr auto operator<=>(const Ipv4Addr&) const = default;

  /// True iff this and `other` agree on the first `prefix_len` bits.
  constexpr bool in_prefix(Ipv4Addr prefix, std::uint8_t prefix_len) const {
    if (prefix_len == 0) return true;
    const std::uint32_t mask = prefix_len >= 32
        ? 0xFFFFFFFFu
        : ~((std::uint32_t{1} << (32 - prefix_len)) - 1);
    return (value_ & mask) == (prefix.value_ & mask);
  }

  std::string to_string() const;

 private:
  std::uint32_t value_ = 0;
};

class MacAddr {
 public:
  constexpr MacAddr() = default;
  constexpr explicit MacAddr(std::uint64_t value) : value_(value & 0xFFFFFFFFFFFFull) {}
  static constexpr MacAddr broadcast() { return MacAddr(0xFFFFFFFFFFFFull); }

  constexpr std::uint64_t value() const { return value_; }
  constexpr bool is_broadcast() const { return value_ == 0xFFFFFFFFFFFFull; }
  constexpr auto operator<=>(const MacAddr&) const = default;

 private:
  std::uint64_t value_ = 0;
};

/// Host addresses per third octet: last octets 1..254.
inline constexpr std::uint32_t kClusterHostsPerOctet = 254;
/// Largest cluster the addressing plan can number without aliasing.
inline constexpr std::uint32_t kMaxClusterNodes = kClusterHostsPerOctet * 256;

/// The cluster addressing plan (see file comment). Constexpr: these run on
/// per-frame paths (broadcast checks, probe addressing), so they must fold
/// to constants rather than cost a call.
constexpr Ipv4Addr cluster_ip(NetworkId network, NodeId node) {
  return Ipv4Addr::octets(
      10, static_cast<std::uint8_t>(network + 1),
      static_cast<std::uint8_t>(node / kClusterHostsPerOctet),
      static_cast<std::uint8_t>(node % kClusterHostsPerOctet + 1));
}
constexpr Ipv4Addr cluster_subnet(NetworkId network) {
  return Ipv4Addr::octets(10, static_cast<std::uint8_t>(network + 1), 0, 0);
}
inline constexpr std::uint8_t kClusterPrefixLen = 16;

/// Inverse of cluster_ip; returns false if `ip` is not a cluster host address
/// (outside both subnets, or a .0 or .255 last octet).
bool parse_cluster_ip(Ipv4Addr ip, NetworkId& network, NodeId& node);

constexpr MacAddr cluster_mac(NetworkId network, NodeId node) {
  // Locally administered OUI 02:44:52 ("DR"), then network and node.
  return MacAddr((0x024452ull << 24) | (std::uint64_t{network} << 16) |
                 std::uint64_t{node});
}

/// Fleet addressing: the inter-cluster relay hub is its own L2 segment and
/// IPv4 subnet (10.200.0.0/24), disjoint from every cluster subnet so relay
/// traffic can never be mistaken for intra-cluster traffic. Each cluster's
/// gateway owns one address and MAC on it, indexed by cluster. Cluster-local
/// subnets are reused verbatim across clusters — they are isolated L2
/// islands, so identical addressing keeps per-cluster behavior (and traces)
/// byte-identical to a standalone cluster.
using ClusterId = std::uint16_t;

constexpr Ipv4Addr fleet_relay_subnet() { return Ipv4Addr::octets(10, 200, 0, 0); }
inline constexpr std::uint8_t kFleetRelayPrefixLen = 24;

constexpr Ipv4Addr fleet_relay_ip(ClusterId cluster) {
  return Ipv4Addr::octets(10, 200, 0, static_cast<std::uint8_t>(cluster + 1));
}
constexpr MacAddr fleet_relay_mac(ClusterId cluster) {
  // Same locally administered OUI; the 0xFE "network" byte pair keeps relay
  // MACs disjoint from cluster NIC MACs (network is only ever 0 or 1 there).
  return MacAddr((0x024452ull << 24) | (0xFEull << 16) | std::uint64_t{cluster});
}

}  // namespace drs::net
