#include "montecarlo/estimator.hpp"

#include <stdexcept>
#include <vector>

#include "analytic/enumerate.hpp"
#include "montecarlo/component_model.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace drs::mc {

namespace {

/// One deterministic RNG block. The stream id folds in every coordinate plus
/// a per-criterion salt, so (N, f) sweeps and the two success criteria never
/// share random streams.
template <typename Trial>
std::uint64_t run_block(std::int64_t nodes, std::int64_t failures,
                        std::uint64_t seed, std::uint64_t salt,
                        std::uint64_t block, std::uint64_t iterations,
                        Trial&& trial) {
  const std::uint64_t stream = util::mix64(
      util::mix64(static_cast<std::uint64_t>(nodes) << 32 |
                      static_cast<std::uint64_t>(failures),
                  block),
      salt);
  util::Rng rng(seed, stream);
  std::uint64_t successes = 0;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    if (trial(nodes, failures, rng)) ++successes;
  }
  return successes;
}

template <typename Trial>
Estimate run_estimate(std::int64_t nodes, std::int64_t failures,
                      const EstimateOptions& options, std::uint64_t salt,
                      Trial&& trial) {
  if (const auto error = analytic::validate_failure_domain(nodes, failures)) {
    throw std::invalid_argument("Monte Carlo estimate: " + *error);
  }
  const std::uint64_t block_size = options.block_size == 0 ? 4096 : options.block_size;
  const std::uint64_t blocks = (options.iterations + block_size - 1) / block_size;

  // Blocks fan out through the shared deterministic job runner; each block's
  // stream depends on its index alone, and the reduction is a plain sum, so
  // the estimate is thread-count invariant.
  const std::vector<std::uint64_t> per_block = util::run_indexed_jobs(
      blocks, options.threads, [&](std::uint64_t block) {
        const std::uint64_t start = block * block_size;
        const std::uint64_t iterations =
            std::min(block_size, options.iterations - start);
        return run_block(nodes, failures, options.seed, salt, block, iterations,
                         trial);
      });
  std::uint64_t successes = 0;
  for (const std::uint64_t s : per_block) successes += s;

  Estimate estimate;
  estimate.successes = successes;
  estimate.trials = options.iterations;
  estimate.p = options.iterations == 0
                   ? 0.0
                   : static_cast<double>(successes) /
                         static_cast<double>(options.iterations);
  estimate.wilson95 = util::wilson_interval(successes, options.iterations);
  return estimate;
}

}  // namespace

Estimate estimate_p_success(std::int64_t nodes, std::int64_t failures,
                            const EstimateOptions& options) {
  return run_estimate(nodes, failures, options, 0xB10CB10CULL,
                      [](std::int64_t n, std::int64_t f, util::Rng& rng) {
                        return trial_pair_connected(n, f, rng);
                      });
}

Estimate estimate_system_success(std::int64_t nodes, std::int64_t failures,
                                 const EstimateOptions& options) {
  return run_estimate(nodes, failures, options, 0xA11FA125ULL,
                      [](std::int64_t n, std::int64_t f, util::Rng& rng) {
                        return trial_all_pairs_connected(n, f, rng);
                      });
}

}  // namespace drs::mc
