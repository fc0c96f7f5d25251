#include "net/routing_table.hpp"

#include <algorithm>

namespace drs::net {

void RoutingTable::install(const Route& route) {
  ++version_;
  for (std::size_t i = 0; i < routes_.size(); ++i) {
    if (routes_[i].prefix == route.prefix &&
        routes_[i].prefix_len == route.prefix_len &&
        routes_[i].origin == route.origin) {
      routes_[i] = route;
      installed_at_[i] = ++generation_;
      return;
    }
  }
  // drs-lint: hotpath-purity-ok(route install happens on reconvergence, not per packet; table stays small)
  routes_.push_back(route);
  installed_at_.push_back(++generation_);  // drs-lint: hotpath-purity-ok(same reconvergence-only path)
}

std::size_t RoutingTable::remove(Ipv4Addr prefix, std::uint8_t prefix_len,
                                 std::optional<RouteOrigin> origin) {
  std::size_t removed = 0;
  for (std::size_t i = routes_.size(); i-- > 0;) {
    const Route& r = routes_[i];
    if (r.prefix == prefix && r.prefix_len == prefix_len &&
        (!origin || r.origin == *origin)) {
      routes_.erase(routes_.begin() + static_cast<std::ptrdiff_t>(i));
      installed_at_.erase(installed_at_.begin() + static_cast<std::ptrdiff_t>(i));
      ++removed;
    }
  }
  if (removed > 0) ++version_;
  return removed;
}

std::size_t RoutingTable::remove_all(RouteOrigin origin) {
  std::size_t removed = 0;
  for (std::size_t i = routes_.size(); i-- > 0;) {
    if (routes_[i].origin == origin) {
      routes_.erase(routes_.begin() + static_cast<std::ptrdiff_t>(i));
      installed_at_.erase(installed_at_.begin() + static_cast<std::ptrdiff_t>(i));
      ++removed;
    }
  }
  if (removed > 0) ++version_;
  return removed;
}

std::optional<Route> RoutingTable::lookup(Ipv4Addr dst) const {
  const Route* best = nullptr;
  std::uint64_t best_generation = 0;
  for (std::size_t i = 0; i < routes_.size(); ++i) {
    const Route& r = routes_[i];
    if (!r.matches(dst)) continue;
    if (best == nullptr || r.prefix_len > best->prefix_len ||
        (r.prefix_len == best->prefix_len &&
         (r.metric < best->metric ||
          (r.metric == best->metric && installed_at_[i] > best_generation)))) {
      best = &r;
      best_generation = installed_at_[i];
    }
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

}  // namespace drs::net
