#include "policy/backup_sequences.hpp"

#include <algorithm>

namespace drs::policy {

BackupSequences::BackupSequences(std::uint16_t node_count,
                                 net::NetworkId prefer_network)
    : node_count_(node_count), prefer_network_(prefer_network) {
  sequences_.resize(static_cast<std::size_t>(node_count_) * node_count_);
  const net::NetworkId other =
      prefer_network_ == net::kNetworkA ? net::kNetworkB : net::kNetworkA;
  for (net::NodeId src = 0; src < node_count_; ++src) {
    for (net::NodeId dst = 0; dst < node_count_; ++dst) {
      if (src == dst) continue;
      std::vector<BackupArc>& seq = sequences_[pair_index(src, dst)];
      seq.push_back({BackupArc::Kind::kDirect, prefer_network_, 0});
      seq.push_back({BackupArc::Kind::kDirect, other, 0});
      // Circular relay fallback: candidates in ring order from src+1,
      // skipping src and dst themselves.
      for (std::uint16_t step = 1; step < node_count_; ++step) {
        const auto relay =
            static_cast<net::NodeId>((src + step) % node_count_);
        if (relay == src || relay == dst) continue;
        seq.push_back({BackupArc::Kind::kRelay, prefer_network_, relay});
      }
    }
  }
}

const std::vector<BackupArc>& BackupSequences::arcs(net::NodeId src,
                                                    net::NodeId dst) const {
  return sequences_.at(pair_index(src, dst));
}

bool BackupSequences::link_up(
    net::NodeId a, net::NodeId b, net::NetworkId network,
    const std::vector<net::ComponentIndex>& failed) {
  const auto down = [&failed](net::ComponentIndex c) {
    return std::binary_search(failed.begin(), failed.end(), c);
  };
  // NIC endpoints only; the 2N+k backplane index needs the node count, so
  // callers (walk, first_usable_network) check the shared backplane.
  return !down(net::ClusterNetwork::nic_component(a, network)) &&
         !down(net::ClusterNetwork::nic_component(b, network));
}

net::NetworkId BackupSequences::first_usable_network(
    net::NodeId a, net::NodeId b,
    const std::vector<net::ComponentIndex>& failed) const {
  const auto down = [&failed](net::ComponentIndex c) {
    return std::binary_search(failed.begin(), failed.end(), c);
  };
  const net::NetworkId order[2] = {
      prefer_network_,
      prefer_network_ == net::kNetworkA ? net::kNetworkB : net::kNetworkA};
  for (const net::NetworkId k : order) {
    const auto backplane =
        static_cast<net::ComponentIndex>(2u * node_count_ + k);
    if (down(backplane)) continue;
    if (link_up(a, b, k, failed)) return k;
  }
  return static_cast<net::NetworkId>(net::kNetworksPerHost);
}

WalkOutcome BackupSequences::walk(
    net::NodeId src, net::NodeId dst,
    const std::vector<net::ComponentIndex>& failed) const {
  WalkOutcome outcome;
  outcome.path.push_back(src);
  for (const BackupArc& arc : arcs(src, dst)) {
    if (arc.kind == BackupArc::Kind::kDirect) {
      const auto backplane =
          static_cast<net::ComponentIndex>(2u * node_count_ + arc.network);
      if (std::binary_search(failed.begin(), failed.end(), backplane)) {
        continue;
      }
      if (!link_up(src, dst, arc.network, failed)) continue;
      outcome.path.push_back(dst);
      outcome.delivered = true;
      return outcome;
    }
    // Relay arc: usable only when the first leg works AND the relay has a
    // usable direct link to dst (so the continuation is one direct hop —
    // no further relaying, hence no loops).
    const net::NetworkId leg1 = first_usable_network(src, arc.relay, failed);
    if (leg1 >= net::kNetworksPerHost) continue;
    const net::NetworkId leg2 =
        first_usable_network(arc.relay, dst, failed);
    if (leg2 >= net::kNetworksPerHost) continue;
    outcome.path.push_back(arc.relay);
    outcome.path.push_back(dst);
    outcome.delivered = true;
    return outcome;
  }
  return outcome;
}

void install_backup_routes(const BackupSequences& sequences,
                           net::ClusterNetwork& network, net::NodeId node,
                           const std::vector<net::ComponentIndex>& failed) {
  const std::uint16_t node_count = sequences.node_count();
  net::RoutingTable& table = network.host(node).routing_table();
  for (net::NodeId dst = 0; dst < node_count; ++dst) {
    if (dst == node) continue;
    // First usable arc of the precomputed sequence under `failed`.
    net::NetworkId out_network = net::kNetworksPerHost;
    net::Ipv4Addr next_hop;
    for (const BackupArc& arc : sequences.arcs(node, dst)) {
      if (arc.kind == BackupArc::Kind::kDirect) {
        const auto backplane =
            static_cast<net::ComponentIndex>(2u * node_count + arc.network);
        if (std::binary_search(failed.begin(), failed.end(), backplane)) {
          continue;
        }
        if (!BackupSequences::link_up(node, dst, arc.network, failed)) {
          continue;
        }
        out_network = arc.network;
        next_hop = net::cluster_ip(arc.network, dst);
        break;
      }
      // Relay arc: first leg to the relay must work, and the relay must
      // have a direct link to dst — the relay's own resolution then picks
      // that direct arc (it precedes every relay arc in its sequence), so
      // the detour is loop-free and at most two hops.
      const net::NetworkId leg1 =
          sequences.first_usable_network(node, arc.relay, failed);
      if (leg1 >= net::kNetworksPerHost) continue;
      const net::NetworkId leg2 =
          sequences.first_usable_network(arc.relay, dst, failed);
      if (leg2 >= net::kNetworksPerHost) continue;
      out_network = leg1;
      next_hop = net::cluster_ip(leg1, arc.relay);
      break;
    }

    for (net::NetworkId addr_net = 0; addr_net < net::kNetworksPerHost;
         ++addr_net) {
      const net::Ipv4Addr address = net::cluster_ip(addr_net, dst);
      const bool direct_default =
          out_network == addr_net && next_hop == net::cluster_ip(addr_net, dst);
      if (out_network >= net::kNetworksPerHost || direct_default) {
        // Unreachable under `failed` (honest blackhole until the failure
        // set shrinks), or the boot subnet route already matches the arc.
        table.remove(address, 32, net::RouteOrigin::kPolicy);
        continue;
      }
      table.install({.prefix = address,
                     .prefix_len = 32,
                     .out_ifindex = out_network,
                     .next_hop = next_hop,
                     .metric = 1,
                     .origin = net::RouteOrigin::kPolicy});
    }
  }
}

}  // namespace drs::policy
