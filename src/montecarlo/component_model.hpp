// Component-level Monte-Carlo trial: draw a uniform f-subset of the 2N+2
// components, ask the ground-truth predicate whether the designated pair
// stays connected. This is the "computer simulation of a networking system
// with N nodes and f failures implementing the DRS algorithm" the paper
// validates Equation 1 with.
#pragma once

#include <cstdint>

#include "analytic/enumerate.hpp"
#include "util/rng.hpp"

namespace drs::mc {

/// Draws exactly `failures` distinct failed components into `out`, by
/// Floyd's algorithm with `out` as the membership test. The draws, their
/// number and the resulting subset are exactly those of
/// `rng.sample_distinct(2N+2, failures, …)`, so every estimate built on it is
/// unchanged from the list-based sampler. Requires 0 <= failures <= 2N+2 and
/// N <= 95; callers check (N, f) once per estimate, not per trial.
void sample_failures(std::int64_t nodes, std::int64_t failures, util::Rng& rng,
                     analytic::ComponentSet& out);

/// One trial: sample + connectivity check for pair (0, 1).
bool trial_pair_connected(std::int64_t nodes, std::int64_t failures, util::Rng& rng);

/// One trial of the system-wide criterion: every pair of network-alive nodes
/// connected (hosts with both NICs failed excluded — they are host failures,
/// not routing failures).
bool trial_all_pairs_connected(std::int64_t nodes, std::int64_t failures,
                               util::Rng& rng);

}  // namespace drs::mc
