#include "analytic/enumerate.hpp"

#include <cassert>
#include <stdexcept>

#include "analytic/survivability.hpp"

namespace drs::analytic {

std::int64_t ComponentSet::count() const {
  std::int64_t total = 0;
  for (auto word : words_) total += __builtin_popcountll(word);
  return total;
}

std::optional<std::string> validate_failure_domain(std::int64_t nodes,
                                                   std::int64_t failures) {
  if (nodes < 2 || nodes > ComponentSet::kMaxNodes) {
    const std::string limit = std::to_string(ComponentSet::kMaxNodes);
    return "N = " + std::to_string(nodes) + " is outside [2, " + limit +
           "] (the " + limit + "-node limit: 2N+2 components must fit the " +
           std::to_string(ComponentSet::kMaxComponents) + "-bit ComponentSet)";
  }
  if (failures < 0 || failures > component_count(nodes)) {
    return "f = " + std::to_string(failures) + " is outside [0, 2N+2 = " +
           std::to_string(component_count(nodes)) + "] for N = " +
           std::to_string(nodes);
  }
  return std::nullopt;
}

namespace {

inline bool nic_up(const ComponentSet& failed, std::int64_t node, std::int64_t network) {
  return !failed.test(2 * node + network);
}

inline bool backplane_up(const ComponentSet& failed, std::int64_t nodes,
                         std::int64_t network) {
  return !failed.test(2 * nodes + network);
}

bool relay_exists(std::int64_t nodes, const ComponentSet& failed, std::int64_t a,
                  std::int64_t b) {
  for (std::int64_t r = 0; r < nodes; ++r) {
    if (r == a || r == b) continue;
    if (nic_up(failed, r, 0) && nic_up(failed, r, 1)) return true;
  }
  return false;
}

}  // namespace

bool pair_connected(std::int64_t nodes, const ComponentSet& failed, std::int64_t a,
                    std::int64_t b) {
  assert(a != b && a < nodes && b < nodes);
  const bool bp0 = backplane_up(failed, nodes, 0);
  const bool bp1 = backplane_up(failed, nodes, 1);

  // Direct on either shared backplane.
  if (bp0 && nic_up(failed, a, 0) && nic_up(failed, b, 0)) return true;
  if (bp1 && nic_up(failed, a, 1) && nic_up(failed, b, 1)) return true;

  // One-hop relay: endpoints alive on opposite networks, both media up, and
  // some third node bridges them.
  if (bp0 && bp1) {
    const bool a0 = nic_up(failed, a, 0);
    const bool a1 = nic_up(failed, a, 1);
    const bool b0 = nic_up(failed, b, 0);
    const bool b1 = nic_up(failed, b, 1);
    if (((a0 && b1) || (a1 && b0)) && relay_exists(nodes, failed, a, b)) {
      return true;
    }
  }
  return false;
}

bool all_live_pairs_connected(std::int64_t nodes, const ComponentSet& failed) {
  for (std::int64_t a = 0; a < nodes; ++a) {
    if (!nic_up(failed, a, 0) && !nic_up(failed, a, 1)) continue;  // host dead
    for (std::int64_t b = a + 1; b < nodes; ++b) {
      if (!nic_up(failed, b, 0) && !nic_up(failed, b, 1)) continue;
      if (!pair_connected(nodes, failed, a, b)) return false;
    }
  }
  return true;
}

EnumerationResult enumerate_success_count(std::int64_t nodes, std::int64_t failures) {
  if (const auto error = validate_failure_domain(nodes, failures)) {
    throw std::invalid_argument("enumerate_success_count: " + *error);
  }
  EnumerationResult result;
  result.total = for_each_subset(
      component_count(nodes), failures, [&](const ComponentSet& failed) {
        if (pair_connected(nodes, failed, 0, 1)) ++result.successes;
      });
  return result;
}

}  // namespace drs::analytic
