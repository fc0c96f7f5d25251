#include "net/host.hpp"

#include <cassert>

#include "util/log.hpp"

namespace drs::net {

Host::Host(sim::Simulator& sim, NodeId id)
    : sim_(sim), id_(id), entity_(sim.entity()) {}

void Host::set_nic(NetworkId ifindex, std::unique_ptr<Nic> nic) {
  nics_.at(ifindex) = std::move(nic);
}

void Host::register_handler(Protocol protocol, PacketHandler handler) {
  handlers_.at(static_cast<std::uint8_t>(protocol)) = std::move(handler);
}

bool Host::send(Packet packet) {
  packet.id = (static_cast<std::uint64_t>(id_) << 48) | next_packet_id_++;
  const auto route = routing_table_.lookup(packet.dst);
  if (!route) {
    ++counters_.drop_no_route;
    return false;
  }
  if (packet.src.is_unspecified()) packet.src = ip(route->out_ifindex);
  const Ipv4Addr next_hop =
      route->next_hop.is_unspecified() ? packet.dst : route->next_hop;
  ++counters_.sent;
  return transmit(route->out_ifindex, next_hop, packet);
}

bool Host::send_via(NetworkId ifindex, Ipv4Addr next_hop, Packet packet) {
  packet.id = (static_cast<std::uint64_t>(id_) << 48) | next_packet_id_++;
  if (packet.src.is_unspecified()) packet.src = ip(ifindex);
  ++counters_.sent;
  return transmit(ifindex, next_hop, packet);
}

bool Host::broadcast_on(NetworkId ifindex, Packet packet) {
  packet.id = (static_cast<std::uint64_t>(id_) << 48) | next_packet_id_++;
  if (packet.src.is_unspecified()) packet.src = ip(ifindex);
  ++counters_.sent;
  Nic& out = *nics_.at(ifindex);
  out.send(Frame{out.mac(), MacAddr::broadcast(), std::move(packet)});
  return true;
}

bool Host::transmit(NetworkId ifindex, Ipv4Addr next_hop, const Packet& packet) {
  const MacAddr* mac = arp_.find(next_hop.value());
  if (mac == nullptr) {
    ++counters_.drop_no_arp;
    // drs-lint: hotpath-purity-ok(debug log formats only when DRS_DEBUG compiled in; drop path)
    DRS_DEBUG("host", "node %u: no ARP entry for %s", id_, next_hop.to_string().c_str());
    return false;
  }
  Nic& out = *nics_.at(ifindex);
  out.send(Frame{out.mac(), *mac, packet});
  return true;
}

void Host::on_frame(NetworkId ifindex, const Frame& frame) {
  const sim::EntityScope scope(sim_, entity_);
  const Packet& packet = frame.packet;
  if (owns_ip(packet.dst) || is_broadcast_ip(packet.dst)) {
    deliver_local(packet, ifindex);
    return;
  }
  forward(packet);
}

void Host::deliver_local(const Packet& packet, NetworkId in_ifindex) {
  ++counters_.received;
  if (tap_) tap_(packet, in_ifindex, /*forwarded=*/false);
  const auto index = static_cast<std::size_t>(packet.protocol);
  if (index >= handlers_.size() || !handlers_[index]) {
    ++counters_.drop_no_handler;
    return;
  }
  handlers_[index](packet, in_ifindex);
}

void Host::forward(Packet packet) {
  if (packet.ttl <= 1) {
    ++counters_.drop_ttl;
    DRS_DEBUG("host", "node %u: TTL expired for packet %llu", id_,
              static_cast<unsigned long long>(packet.id));
    return;
  }
  packet.ttl = static_cast<std::uint8_t>(packet.ttl - 1);
  const auto route = routing_table_.lookup(packet.dst);
  if (!route) {
    ++counters_.drop_no_route;
    return;
  }
  const Ipv4Addr next_hop =
      route->next_hop.is_unspecified() ? packet.dst : route->next_hop;
  ++counters_.forwarded;
  if (tap_) tap_(packet, route->out_ifindex, /*forwarded=*/true);
  transmit(route->out_ifindex, next_hop, packet);
}

}  // namespace drs::net
