#include "proto/udp.hpp"

#include "util/arena.hpp"

namespace drs::proto {

UdpService::UdpService(net::Host& host) : host_(host) {
  host_.register_handler(net::Protocol::kUdp,
                         [this](const net::Packet& p, net::NetworkId in_if) {
                           on_packet(p, in_if);
                         });
}

void UdpService::open(std::uint16_t port, UdpHandler handler) {
  ports_[port] = std::move(handler);
}

bool UdpService::send(net::Ipv4Addr dst, std::uint16_t dst_port,
                      std::uint16_t src_port, std::uint32_t data_bytes,
                      std::any message) {
  auto payload = util::make_pooled<UdpPayload>(host_.simulator().arena());
  payload->src_port = src_port;
  payload->dst_port = dst_port;
  payload->data_bytes = data_bytes;
  payload->message = std::move(message);

  net::Packet packet;
  packet.dst = dst;
  packet.protocol = net::Protocol::kUdp;
  packet.payload = std::move(payload);
  return host_.send(std::move(packet));
}

void UdpService::on_packet(const net::Packet& packet, net::NetworkId in_ifindex) {
  const UdpPayload* udp = net::payload_cast<UdpPayload>(packet.payload);
  if (udp == nullptr) return;
  auto it = ports_.find(udp->dst_port);
  if (it == ports_.end()) {
    ++no_port_;
    return;
  }
  ++delivered_;
  UdpDatagram datagram;
  datagram.src = packet.src;
  datagram.src_port = udp->src_port;
  datagram.dst_port = udp->dst_port;
  datagram.data_bytes = udp->data_bytes;
  datagram.message = &udp->message;
  datagram.in_ifindex = in_ifindex;
  it->second(datagram);
}

}  // namespace drs::proto
