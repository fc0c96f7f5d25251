#include "net/addr.hpp"

#include <cstdio>

namespace drs::net {

std::string Ipv4Addr::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (value_ >> 24) & 0xFF,
                (value_ >> 16) & 0xFF, (value_ >> 8) & 0xFF, value_ & 0xFF);
  return buf;
}

bool parse_cluster_ip(Ipv4Addr ip, NetworkId& network, NodeId& node) {
  const std::uint32_t v = ip.value();
  if (((v >> 24) & 0xFF) != 10) return false;
  const std::uint32_t net_octet = (v >> 16) & 0xFF;
  if (net_octet != 1 && net_octet != 2) return false;
  const std::uint32_t host_octet = v & 0xFF;
  if (host_octet == 0 || host_octet == 0xFF) return false;
  network = static_cast<NetworkId>(net_octet - 1);
  node = static_cast<NodeId>(((v >> 8) & 0xFF) * kClusterHostsPerOctet +
                             host_octet - 1);
  return true;
}

}  // namespace drs::net
