#include "core/metrics.hpp"

namespace drs::core {

const char* to_string(PeerRouteMode m) {
  switch (m) {
    case PeerRouteMode::kDirect: return "direct";
    case PeerRouteMode::kViaNetworkA: return "via-net-A";
    case PeerRouteMode::kViaNetworkB: return "via-net-B";
    case PeerRouteMode::kRelay: return "relay";
    case PeerRouteMode::kUnreachable: return "unreachable";
  }
  return "?";
}

}  // namespace drs::core
