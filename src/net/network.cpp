#include "net/network.hpp"

#include <cassert>
#include <sstream>
#include <stdexcept>
#include <string>

namespace drs::net {

std::string ComponentRef::to_string() const {
  std::ostringstream out;
  if (kind == Kind::kNic) {
    out << "nic(node=" << node << ", net=" << static_cast<int>(network) << ")";
  } else {
    out << "backplane(" << static_cast<int>(network) << ")";
  }
  return out.str();
}

ClusterNetwork::ClusterNetwork(sim::Simulator& sim, Config config)
    : sim_(sim), config_(config) {
  if (config_.node_count < 2 || config_.node_count > kMaxClusterNodes) {
    throw std::invalid_argument(
        "ClusterNetwork: node_count = " + std::to_string(config_.node_count) +
        " is outside [2, " + std::to_string(kMaxClusterNodes) +
        "] (the addressing plan numbers at most 254 x 256 nodes)");
  }

  for (NetworkId k = 0; k < kNetworksPerHost; ++k) {
    backplanes_.push_back(std::make_unique<Backplane>(sim_, k, config_.backplane));
  }

  hosts_.reserve(config_.node_count);
  for (NodeId i = 0; i < config_.node_count; ++i) {
    auto host = std::make_unique<Host>(sim_, i);
    for (NetworkId k = 0; k < kNetworksPerHost; ++k) {
      auto nic = std::make_unique<Nic>(i, k, cluster_mac(k, i), cluster_ip(k, i),
                                       *host);
      backplanes_[k]->attach(*nic);
      host->set_nic(k, std::move(nic));
      // On-link subnet route for each network.
      host->routing_table().install(Route{
          .prefix = cluster_subnet(k),
          .prefix_len = kClusterPrefixLen,
          .out_ifindex = k,
          .next_hop = Ipv4Addr{},
          .metric = 1,
          .origin = RouteOrigin::kStatic,
      });
    }
    hosts_.push_back(std::move(host));
  }

  // Static ARP: every host knows the MAC of every cluster address (the
  // production deployment pre-configured peers; this also keeps the medium
  // model free of ARP chatter, which the paper does not account for either).
  for (auto& host : hosts_) {
    host->reserve_arp(kNetworksPerHost * std::size_t{config_.node_count});
    for (NodeId i = 0; i < config_.node_count; ++i) {
      for (NetworkId k = 0; k < kNetworksPerHost; ++k) {
        host->add_arp_entry(cluster_ip(k, i), cluster_mac(k, i));
      }
    }
  }
}

ComponentRef ClusterNetwork::component(ComponentIndex index, std::uint16_t node_count) {
  assert(index < 2u * node_count + 2u);
  if (index < 2u * node_count) {
    return ComponentRef{ComponentRef::Kind::kNic,
                        static_cast<NodeId>(index / 2),
                        static_cast<NetworkId>(index % 2)};
  }
  return ComponentRef{ComponentRef::Kind::kBackplane, 0,
                      static_cast<NetworkId>(index - 2u * node_count)};
}

void ClusterNetwork::set_component_failed(ComponentIndex index, bool failed) {
  const ComponentRef ref = component(index);
  if (ref.kind == ComponentRef::Kind::kNic) {
    hosts_.at(ref.node)->nic(ref.network).set_failed(failed);
  } else {
    backplanes_.at(ref.network)->set_failed(failed);
  }
}

bool ClusterNetwork::component_failed(ComponentIndex index) const {
  const ComponentRef ref = component(index);
  if (ref.kind == ComponentRef::Kind::kNic) {
    return hosts_.at(ref.node)->nic(ref.network).failed();
  }
  return backplanes_.at(ref.network)->failed();
}

std::vector<ComponentIndex> ClusterNetwork::failed_components() const {
  std::vector<ComponentIndex> failed;
  for (ComponentIndex c = 0; c < component_count(); ++c) {
    if (component_failed(c)) failed.push_back(c);
  }
  return failed;
}

void ClusterNetwork::heal_all() {
  for (ComponentIndex c = 0; c < component_count(); ++c) {
    set_component_failed(c, false);
  }
}

}  // namespace drs::net
