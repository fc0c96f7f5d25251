// Monte-Carlo estimator for P[Success](N, f).
//
// Parallel across worker threads, yet bit-deterministic and *thread-count
// invariant*: iterations are partitioned into fixed blocks, each block's RNG
// stream is derived from (seed, N, f, block index) alone, and block results
// are summed — so 1 thread and 16 threads produce the identical estimate.
// This is the property the convergence experiment (Fig. 3) and the test
// suite rely on.
#pragma once

#include <cstdint>

#include "util/stats.hpp"

namespace drs::mc {

struct EstimateOptions {
  std::uint64_t iterations = 1000;
  std::uint64_t seed = 0x5EED5EEDULL;
  /// 0 = hardware_concurrency.
  unsigned threads = 1;
  /// Iterations per deterministic RNG block (also the parallel grain).
  std::uint64_t block_size = 4096;
};

struct Estimate {
  std::uint64_t successes = 0;
  std::uint64_t trials = 0;
  double p = 0.0;
  util::Interval wilson95{0.0, 1.0};
};

/// Estimates P[pair (0,1) connected | exactly f component failures].
///
/// Both estimators take 2 <= N <= 95 (the failure bitset holds the 2N+2
/// components of at most 95 nodes) and 0 <= f <= 2N+2. They check this once,
/// on the calling thread before any worker starts, and throw
/// std::invalid_argument naming the rejected value otherwise
/// (analytic::validate_failure_domain).
Estimate estimate_p_success(std::int64_t nodes, std::int64_t failures,
                            const EstimateOptions& options);

/// Estimates the system-wide criterion P[all live pairs connected | f
/// failures] — the extension drs::analytic::p_all_pairs_success computes
/// exactly for small N. Uses streams independent of estimate_p_success.
Estimate estimate_system_success(std::int64_t nodes, std::int64_t failures,
                                 const EstimateOptions& options);

}  // namespace drs::mc
