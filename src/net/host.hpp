// Simulated host: two NICs, an IP stack (dispatch + forwarding), a routing
// table, and a static ARP map.
//
// Hosts can forward packets between their interfaces ("act as a router to
// create a new path between the sender and the proposed recipient" — the DRS
// relay role). Forwarding is always on, as on the deployed servers; the
// routing tables decide whether any traffic actually transits.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "net/backplane.hpp"
#include "net/nic.hpp"
#include "net/routing_table.hpp"
#include "sim/simulator.hpp"
#include "util/flat_map.hpp"

namespace drs::net {

/// Receives packets addressed to this host (or broadcast) for one protocol.
/// Bound once per protocol at service construction, then only invoked.
using PacketHandler = std::function<void(const Packet&, NetworkId in_ifindex)>;

/// True for the limited broadcast and the cluster broadcasts 10.(k+1).0.255,
/// whose .255 last octet no node holds (see net/addr.hpp).
/// Inline: checked once per received frame; with constexpr cluster_subnet
/// this folds to a handful of constant compares.
inline bool is_broadcast_ip(Ipv4Addr ip) {
  if (ip.value() == 0xFFFFFFFFu) return true;
  for (NetworkId k = 0; k < kNetworksPerHost; ++k) {
    if (ip.value() == (cluster_subnet(k).value() | 0xFFu)) return true;
  }
  return false;
}

class Host : public FrameSink {
 public:
  /// The host receives frames under the simulator's current entity (see
  /// sim::EntityScope): whatever a delivered frame makes it schedule is keyed
  /// to the host's owner, not to whichever medium delivered it.
  Host(sim::Simulator& sim, NodeId id);
  ~Host() override = default;

  NodeId id() const { return id_; }
  sim::Simulator& simulator() { return sim_; }

  Nic& nic(NetworkId ifindex) { return *nics_.at(ifindex); }
  const Nic& nic(NetworkId ifindex) const { return *nics_.at(ifindex); }
  Ipv4Addr ip(NetworkId ifindex) const { return nics_.at(ifindex)->ip(); }
  /// True iff `addr` is one of this host's interface addresses. Inline:
  /// checked once per received frame to pick deliver-vs-forward.
  bool owns_ip(Ipv4Addr addr) const {
    for (const auto& nic : nics_) {
      if (nic && nic->ip() == addr) return true;
    }
    return false;
  }

  RoutingTable& routing_table() { return routing_table_; }
  const RoutingTable& routing_table() const { return routing_table_; }

  void add_arp_entry(Ipv4Addr ip, MacAddr mac) { arp_[ip.value()] = mac; }
  /// Pre-sizes the ARP table for `entries` addresses.
  void reserve_arp(std::size_t entries) { arp_.reserve(entries); }

  /// Replaces the handler for `protocol` (one handler per protocol, as in a
  /// kernel dispatch table).
  void register_handler(Protocol protocol, PacketHandler handler);

  /// Routes and transmits; assigns the packet id. Returns false when dropped
  /// locally (no route / no ARP entry / NIC failed).
  bool send(Packet packet);

  /// Transmits out a specific interface to a specific on-link next hop,
  /// bypassing the routing table. DRS link probes use this: the probe must
  /// test one particular (interface, peer) link regardless of routes.
  bool send_via(NetworkId ifindex, Ipv4Addr next_hop, Packet packet);

  /// Transmits a broadcast frame out one interface.
  bool broadcast_on(NetworkId ifindex, Packet packet);

  struct Counters {
    std::uint64_t sent = 0;
    std::uint64_t received = 0;          // delivered to a local handler
    std::uint64_t forwarded = 0;
    std::uint64_t drop_no_route = 0;
    std::uint64_t drop_no_arp = 0;
    std::uint64_t drop_ttl = 0;
    std::uint64_t drop_no_handler = 0;
  };
  const Counters& counters() const { return counters_; }

  // FrameSink
  void on_frame(NetworkId ifindex, const Frame& frame) override;

  /// Test/observability hook: sees every packet delivered or forwarded.
  using Tap = std::function<void(const Packet&, NetworkId in_ifindex, bool forwarded)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

 private:
  friend class ClusterNetwork;
  friend struct HostAssembler;
  /// Installed by the cluster builder after construction.
  void set_nic(NetworkId ifindex, std::unique_ptr<Nic> nic);

  bool transmit(NetworkId ifindex, Ipv4Addr next_hop, const Packet& packet);
  void deliver_local(const Packet& packet, NetworkId in_ifindex);
  void forward(Packet packet);

  sim::Simulator& sim_;
  NodeId id_;
  sim::Entity entity_;
  std::array<std::unique_ptr<Nic>, kNetworksPerHost> nics_;
  RoutingTable routing_table_;
  util::FlatMap<std::uint32_t, MacAddr> arp_;  // keyed by IP value
  /// Kernel-style flat dispatch table indexed by protocol number. An empty
  /// slot means "no handler" — checked on every delivery, so this stays an
  /// array (no hashing) on the per-packet hot path.
  std::array<PacketHandler, 8> handlers_;
  Counters counters_;
  Tap tap_;
  std::uint64_t next_packet_id_ = 1;
};

/// Build-time NIC installer for topology builders above net that assemble
/// non-cluster hosts (the fleet's relay gateways). Wiring-phase only — never
/// call after traffic starts.
struct HostAssembler {
  static void install_nic(Host& host, NetworkId ifindex,
                          std::unique_ptr<Nic> nic) {
    host.set_nic(ifindex, std::move(nic));
  }
};

}  // namespace drs::net
