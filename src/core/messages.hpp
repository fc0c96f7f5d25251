// DRS control-plane messages.
//
// When both direct links to a peer are down, the daemon broadcasts
// ROUTE_DISCOVER ("is some other server able to act as a router?"); nodes
// with working direct links to both parties answer ROUTE_OFFER; the
// requester installs its detour and leases forwarding state on the chosen
// relay with ROUTE_SET (acknowledged, refreshed every cycle, expiring if the
// requester disappears). ROUTE_TEARDOWN releases the lease early when the
// direct path heals.
#pragma once

#include <cstdint>

#include "net/packet.hpp"

namespace drs::core {

enum class DrsMessageType : std::uint8_t {
  kRouteDiscover,
  kRouteOffer,
  kRouteSet,
  kRouteSetAck,
  kRouteTeardown,
  kStatusRequest,  // management plane: "how do your links look?"
  kStatusReply,
};

struct DrsControlPayload final : net::Payload {
  static constexpr net::PayloadKind kKind = net::PayloadKind::kDrsControl;
  DrsControlPayload() : net::Payload(kKind) {}

  DrsMessageType type = DrsMessageType::kRouteDiscover;
  /// Correlates offers/acks with a discovery round: (requester << 32 | seq).
  std::uint64_t request_id = 0;
  net::NodeId requester = 0;
  net::NodeId target = 0;
  net::NodeId relay = 0;  // valid in offers/sets/acks/teardowns

  /// Status-reply payload: a compact snapshot of the responder's health.
  std::uint16_t links_down = 0;    // peer-links this node considers DOWN
  std::uint16_t detours = 0;       // peers currently routed via a detour
  std::uint16_t leases_held = 0;   // relay leases this node serves

  /// 'D' 'R' version type (4 bytes), request_id (8), requester, target,
  /// relay and the three status counters (6 x 2).
  std::uint32_t wire_size() const override { return 24; }
};

}  // namespace drs::core
