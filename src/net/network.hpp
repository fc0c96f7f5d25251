// Cluster builder: N dual-homed hosts on two shared backplanes, with the
// boot-time static configuration the deployed clusters used (per-subnet
// routes, static ARP for every peer address).
//
// The builder also defines the canonical *component numbering* shared with
// the analytic survivability model: components 2i + k are NIC(node i,
// network k) for 0 <= i < N, and components 2N + k are the two backplanes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/backplane.hpp"
#include "net/host.hpp"
#include "sim/simulator.hpp"

namespace drs::net {

/// Flat index of a failure component; see file comment for the numbering.
using ComponentIndex = std::uint32_t;

struct ComponentRef {
  enum class Kind : std::uint8_t { kNic, kBackplane };
  Kind kind = Kind::kNic;
  NodeId node = 0;        // valid when kind == kNic
  NetworkId network = 0;  // NIC's network, or the backplane id

  std::string to_string() const;
};

class ClusterNetwork {
 public:
  struct Config {
    std::uint16_t node_count = 8;
    Backplane::Config backplane;
  };

  /// Throws std::invalid_argument unless 2 <= node_count <=
  /// kMaxClusterNodes.
  ClusterNetwork(sim::Simulator& sim, Config config);

  sim::Simulator& simulator() { return sim_; }
  std::uint16_t node_count() const { return config_.node_count; }
  /// Total failure components: 2N NICs + 2 backplanes.
  ComponentIndex component_count() const {
    return static_cast<ComponentIndex>(2u * config_.node_count + 2u);
  }

  Host& host(NodeId i) { return *hosts_.at(i); }
  const Host& host(NodeId i) const { return *hosts_.at(i); }
  Backplane& backplane(NetworkId k) { return *backplanes_.at(k); }
  const Backplane& backplane(NetworkId k) const { return *backplanes_.at(k); }

  static ComponentRef component(ComponentIndex index, std::uint16_t node_count);
  ComponentRef component(ComponentIndex index) const {
    return component(index, config_.node_count);
  }
  static ComponentIndex nic_component(NodeId node, NetworkId network) {
    return static_cast<ComponentIndex>(2u * node + network);
  }
  ComponentIndex backplane_component(NetworkId network) const {
    return static_cast<ComponentIndex>(2u * config_.node_count + network);
  }

  void set_component_failed(ComponentIndex index, bool failed);
  bool component_failed(ComponentIndex index) const;
  /// Human-readable component name for failure logs (cold path).
  std::string describe_component(ComponentIndex index) const {
    return component(index).to_string();
  }

  /// Indices of every currently-failed component, ascending — the
  /// network-side ground truth the invariant checkers compare against.
  std::vector<ComponentIndex> failed_components() const;
  /// Restores every component to healthy.
  void heal_all();

 private:
  sim::Simulator& sim_;
  Config config_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::vector<std::unique_ptr<Backplane>> backplanes_;
};

}  // namespace drs::net
