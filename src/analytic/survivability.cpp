#include "analytic/survivability.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "analytic/enumerate.hpp"

namespace drs::analytic {

u128 success_count(std::int64_t nodes, std::int64_t failures) {
  assert(nodes >= 2);
  assert(failures >= 0 && failures <= component_count(nodes));
  const std::int64_t n2 = 2 * nodes;

  // Both backplanes up: all f failures among the 2N NICs. Subtract subsets
  // where endpoint A or B lost both NICs (inclusion-exclusion), and subsets
  // that split the endpoints across the two networks with every possible
  // relay knocked out (two orientations, each pinning one NIC of each
  // endpoint failed and one alive, the remaining f-2 failures covering all
  // N-2 other nodes).
  const u128 both_up = binomial(n2, failures);
  const u128 endpoint_dead =
      2 * binomial(n2 - 2, failures - 2) - binomial(n2 - 4, failures - 4);
  const u128 cross_split_no_relay = 2 * coverage_count(nodes - 2, failures - 2);

  // Exactly one backplane down (2 choices): the pair communicates iff both
  // endpoint NICs on the surviving backplane are up; relays cannot help with
  // a single shared medium. The other f-1 failures avoid those two NICs.
  const u128 one_bp_down = 2 * binomial(n2 - 2, failures - 1);

  // Both backplanes down: nothing communicates; contributes zero.
  assert(both_up >= endpoint_dead + cross_split_no_relay);
  return both_up - endpoint_dead - cross_split_no_relay + one_bp_down;
}

u128 total_count(std::int64_t nodes, std::int64_t failures) {
  return binomial(component_count(nodes), failures);
}

double p_success(std::int64_t nodes, std::int64_t failures) {
  const u128 total = total_count(nodes, failures);
  if (total == 0) return 0.0;
  return to_double(success_count(nodes, failures)) / to_double(total);
}

std::int64_t threshold_nodes(std::int64_t failures, double target,
                             std::int64_t max_nodes) {
  for (std::int64_t n = 2; n <= max_nodes; ++n) {
    if (failures > component_count(n)) continue;
    if (p_success(n, failures) >= target) return n;
  }
  return -1;
}

double failure_count_pmf(std::int64_t nodes, std::int64_t failures, double q) {
  assert(q >= 0.0 && q <= 1.0);
  const std::int64_t m = component_count(nodes);
  if (failures < 0 || failures > m) return 0.0;
  if (q == 0.0) return failures == 0 ? 1.0 : 0.0;
  if (q == 1.0) return failures == m ? 1.0 : 0.0;
  // Log-space for numerical stability at the tails.
  const double log_pmf = log_binomial(m, failures) +
                         static_cast<double>(failures) * std::log(q) +
                         static_cast<double>(m - failures) * std::log1p(-q);
  return std::exp(log_pmf);
}

double p_success_unconditional(std::int64_t nodes, double q) {
  const std::int64_t m = component_count(nodes);
  double total = 0.0;
  for (std::int64_t f = 0; f <= m; ++f) {
    const double pmf = failure_count_pmf(nodes, f, q);
    if (pmf == 0.0) continue;
    total += pmf * p_success(nodes, f);
  }
  return total;
}

u128 all_pairs_success_count(std::int64_t nodes, std::int64_t failures) {
  if (const auto error = validate_failure_domain(nodes, failures)) {
    throw std::invalid_argument("all_pairs_success_count: " + *error);
  }
  u128 successes = 0;
  for_each_subset(component_count(nodes), failures,
                  [&](const ComponentSet& failed) {
                    if (all_live_pairs_connected(nodes, failed)) ++successes;
                  });
  return successes;
}

double p_all_pairs_success(std::int64_t nodes, std::int64_t failures) {
  const u128 total = total_count(nodes, failures);
  if (total == 0) return 0.0;
  return to_double(all_pairs_success_count(nodes, failures)) / to_double(total);
}

}  // namespace drs::analytic
