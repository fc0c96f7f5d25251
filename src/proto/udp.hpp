// UDP-lite: connectionless datagrams with port demultiplexing.
//
// Application payloads travel as std::any (the simulator does not serialize)
// while `data_bytes` drives the on-wire size accounting. Cluster workloads
// (drs::cluster) and tests use this layer.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <unordered_map>

#include "net/host.hpp"

namespace drs::proto {

struct UdpPayload final : net::Payload {
  static constexpr net::PayloadKind kKind = net::PayloadKind::kUdp;
  UdpPayload() : net::Payload(kKind) {}

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t data_bytes = 0;
  std::any message;

  std::uint32_t wire_size() const override { return 8 + data_bytes; }
};

struct UdpDatagram {
  net::Ipv4Addr src;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t data_bytes = 0;
  const std::any* message = nullptr;
  net::NetworkId in_ifindex = 0;
};

using UdpHandler = std::function<void(const UdpDatagram&)>;

class UdpService {
 public:
  explicit UdpService(net::Host& host);
  UdpService(const UdpService&) = delete;
  UdpService& operator=(const UdpService&) = delete;

  /// Binds a handler to a local port; replaces any existing binding.
  void open(std::uint16_t port, UdpHandler handler);

  /// Sends a datagram via the routing table. Returns false if dropped
  /// locally.
  bool send(net::Ipv4Addr dst, std::uint16_t dst_port, std::uint16_t src_port,
            std::uint32_t data_bytes, std::any message = {});

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t no_port() const { return no_port_; }

 private:
  void on_packet(const net::Packet& packet, net::NetworkId in_ifindex);

  net::Host& host_;
  // drs-lint: unordered-ok(dispatch by destination port only; never iterated)
  std::unordered_map<std::uint16_t, UdpHandler> ports_;
  std::uint64_t delivered_ = 0;
  std::uint64_t no_port_ = 0;
};

}  // namespace drs::proto
