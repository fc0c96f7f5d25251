// Per-daemon observability: everything the benches and tests measure.
#pragma once

#include <cstdint>

namespace drs::core {

/// The routing decision currently in force for one peer.
enum class PeerRouteMode : std::uint8_t {
  kDirect,        // both direct links usable, subnet routing
  kViaNetworkA,   // detour: all peer traffic pinned to network 0
  kViaNetworkB,   // detour: all peer traffic pinned to network 1
  kRelay,         // detour through a third node
  kUnreachable,   // no direct link and no relay found (yet)
};

const char* to_string(PeerRouteMode m);

struct DaemonMetrics {
  std::uint64_t probes_sent = 0;
  std::uint64_t probes_failed = 0;
  std::uint64_t links_declared_down = 0;
  std::uint64_t links_declared_up = 0;
  std::uint64_t discoveries_started = 0;
  std::uint64_t offers_sent = 0;
  std::uint64_t offers_received = 0;
  std::uint64_t relays_selected = 0;
  std::uint64_t standby_activations = 0;  // warm-standby relays put in service
  std::uint64_t route_sets_honored = 0;   // relay side
  std::uint64_t route_installs = 0;       // local routing-table writes
  std::uint64_t route_removals = 0;
  std::uint64_t control_messages_sent = 0;
  std::uint64_t leases_expired = 0;       // relay side
  /// Route-mode changes; each is also a kDetour* trace event.
  std::uint64_t route_changes = 0;
};

}  // namespace drs::core
