// Equation 1 of the paper: the conditional probability that a given pair of
// servers can communicate under DRS, given that exactly f of the 2N+2
// network components (2N NICs + 2 backplanes) have failed, all failure
// subsets equiprobable.
//
// Derivation (reconstructed from the paper's garbled equation and verified
// against its three stated 0.99 crossovers — see DESIGN.md):
//
//   F(N,f) = C(2N,f)                        both backplanes up
//          - [ 2 C(2N-2,f-2) - C(2N-4,f-4) ]  minus endpoint-dead subsets
//          - 2 T(N-2,f-2)                     minus cross-split w/o relay
//          + 2 C(2N-2,f-1)                    one backplane down, direct path
//
//   P[Success](N,f) = F(N,f) / C(2N+2,f)
//
// where T(m,r) is the coverage count (every potential relay lost >= 1 NIC).
#pragma once

#include <cstdint>

#include "analytic/combinatorics.hpp"

namespace drs::analytic {

/// Number of failure components in an N-node DRS cluster.
constexpr std::int64_t component_count(std::int64_t nodes) { return 2 * nodes + 2; }

/// F(N, f): failure subsets of size f that leave the designated pair
/// connected. Defined for N >= 2 and 0 <= f <= 2N+2.
u128 success_count(std::int64_t nodes, std::int64_t failures);

/// C(2N+2, f): all failure subsets of size f.
u128 total_count(std::int64_t nodes, std::int64_t failures);

/// Equation 1. Exact ratio of exact counts, evaluated in double.
[[nodiscard]] double p_success(std::int64_t nodes, std::int64_t failures);

/// Smallest N (searching from max(2, f-ish) upward) with
/// p_success(N, f) >= target. The paper reports 18/32/45 for f=2/3/4 at 0.99.
std::int64_t threshold_nodes(std::int64_t failures, double target = 0.99,
                             std::int64_t max_nodes = 4096);

// ---------------------------------------------------------------------------
// Unconditional model (the paper's q framing)
// ---------------------------------------------------------------------------
//
// The paper introduces Equation 1 by assigning every component "equal
// probability of failure, say q" and notes that the probability of f
// simultaneous failures is q^f — "the probability of multiple failures in a
// system decreases exponentially". Conditioning away the time dimension
// yields Equation 1. These helpers put the q back: with components failed
// independently with probability q, mix Equation 1 over the binomial failure
// count.

/// P[exactly f of the 2N+2 components are failed] = C(M,f) q^f (1-q)^(M-f).
[[nodiscard]] double failure_count_pmf(std::int64_t nodes, std::int64_t failures, double q);

/// Unconditional P[pair communicates] = sum_f pmf(f) * p_success(N, f).
/// Defined for 0 <= q <= 1 and N <= 64 (exact Equation 1 under the sum).
[[nodiscard]] double p_success_unconditional(std::int64_t nodes, double q);

// ---------------------------------------------------------------------------
// System-wide survivability (extension beyond the paper)
// ---------------------------------------------------------------------------
//
// Equation 1 scores one designated pair. A cluster operator usually cares
// about the whole system: every pair of network-alive servers communicating.
// There is no compact closed form (the events are heavily dependent), so
// this is computed exactly by enumeration for small N and estimated by the
// Monte-Carlo layer for large N (drs::mc::estimate_system_success).

/// Exhaustive count of size-f failure subsets where all live pairs stay
/// connected. O(C(2N+2, f)); intended for N <= 10. Throws
/// std::invalid_argument when validate_failure_domain rejects (N, f).
u128 all_pairs_success_count(std::int64_t nodes, std::int64_t failures);

/// all_pairs_success_count / C(2N+2, f); 0 when that total is 0.
[[nodiscard]] double p_all_pairs_success(std::int64_t nodes, std::int64_t failures);

}  // namespace drs::analytic
