// The Fig. 3 experiment: how fast the Monte-Carlo estimate converges to
// Equation 1.
//
// For each fixed failure count f, run the estimator at a given iteration
// budget for every cluster size f < N < n_limit, and report the mean
// absolute deviation from the closed form across those N. The paper plots
// this against the iteration count on a log10 axis and observes monotone
// convergence to zero, with the deviation already small at 1,000 iterations.
#pragma once

#include <cstdint>

#include "montecarlo/estimator.hpp"

namespace drs::mc {

struct ConvergencePoint {
  std::int64_t failures = 0;
  std::uint64_t iterations = 0;
  double mean_abs_deviation = 0.0;
  double max_abs_deviation = 0.0;
};

/// One cell of the sweep: N ranges over f < N < n_limit (the paper uses 64).
ConvergencePoint convergence_point(std::int64_t failures, std::uint64_t iterations,
                                   std::int64_t n_limit, std::uint64_t seed,
                                   unsigned threads);

}  // namespace drs::mc
