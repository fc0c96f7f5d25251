// Per-host routing table.
//
// Lookup is longest-prefix-first, then lowest metric, then most recently
// installed. DRS works by installing /32 host routes ("point-to-point routes
// around the failed portion of the network" in the paper's words), which
// therefore override the /16 subnet routes installed at boot.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/addr.hpp"

namespace drs::net {

enum class RouteOrigin : std::uint8_t {
  kStatic,  // installed by the cluster builder at boot
  kDrs,     // installed by the DRS daemon
  kRip,     // installed by the distance-vector baseline
  kOspf,    // installed by the link-state baseline
  kPolicy,  // installed by a precomputed policy (policy/ module)
};

struct Route {
  Ipv4Addr prefix;
  std::uint8_t prefix_len = 32;
  NetworkId out_ifindex = 0;
  /// Unspecified means the destination is on-link (deliver directly).
  Ipv4Addr next_hop;
  std::uint16_t metric = 1;
  RouteOrigin origin = RouteOrigin::kStatic;

  bool matches(Ipv4Addr dst) const { return dst.in_prefix(prefix, prefix_len); }
};

class RoutingTable {
 public:
  /// Installs a route; replaces an existing route with the same
  /// (prefix, prefix_len, origin).
  void install(const Route& route);

  /// Removes routes matching (prefix, prefix_len) and, if given, the origin.
  /// Returns how many were removed.
  std::size_t remove(Ipv4Addr prefix, std::uint8_t prefix_len,
                     std::optional<RouteOrigin> origin = std::nullopt);

  /// Removes every route of the given origin; returns how many.
  std::size_t remove_all(RouteOrigin origin);

  std::optional<Route> lookup(Ipv4Addr dst) const;

  const std::vector<Route>& routes() const { return routes_; }

  /// Monotonic counter bumped on every mutation; lets daemons detect churn.
  std::uint64_t version() const { return version_; }

 private:
  std::vector<Route> routes_;
  std::uint64_t generation_ = 0;  // install order for tie-breaking
  std::vector<std::uint64_t> installed_at_;
  std::uint64_t version_ = 0;
};

}  // namespace drs::net
