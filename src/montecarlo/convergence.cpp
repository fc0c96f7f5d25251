#include "montecarlo/convergence.hpp"

#include <algorithm>
#include <cmath>

#include "analytic/survivability.hpp"
#include "util/rng.hpp"

namespace drs::mc {

ConvergencePoint convergence_point(std::int64_t failures, std::uint64_t iterations,
                                   std::int64_t n_limit, std::uint64_t seed,
                                   unsigned threads) {
  ConvergencePoint point;
  point.failures = failures;
  point.iterations = iterations;
  double sum = 0.0;
  std::int64_t cells = 0;
  for (std::int64_t n = std::max<std::int64_t>(2, failures + 1); n < n_limit; ++n) {
    EstimateOptions options;
    options.iterations = iterations;
    // Distinct stream per iteration budget so the sweep's cells are
    // independent samples (re-using streams across budgets would correlate
    // the curve's points).
    options.seed = util::mix64(seed, iterations);
    options.threads = threads;
    const Estimate estimate = estimate_p_success(n, failures, options);
    const double deviation =
        std::abs(estimate.p - analytic::p_success(n, failures));
    sum += deviation;
    point.max_abs_deviation = std::max(point.max_abs_deviation, deviation);
    ++cells;
  }
  point.mean_abs_deviation = cells == 0 ? 0.0 : sum / static_cast<double>(cells);
  return point;
}

}  // namespace drs::mc
