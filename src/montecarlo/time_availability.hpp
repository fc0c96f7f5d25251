// Renewal-process Monte-Carlo: each component alternates exponential
// up-times (mean MTBF) and exponential repairs (mean MTTR); the pair's
// connectivity is sampled at regular instants over a long horizon. The
// long-run fraction of connected samples must converge to
// analytic::pair_availability — the stationarity bridge between the paper's
// conditional Equation 1 and an operator's time-based availability numbers.
#pragma once

#include <cstdint>

#include "analytic/availability.hpp"
#include "util/stats.hpp"

namespace drs::mc {

struct TimeAvailabilityOptions {
  std::int64_t nodes = 8;
  analytic::ComponentReliability reliability;
  /// Simulated horizon; choose >> MTBF so every component cycles many times.
  double horizon_seconds = 1e6;
  /// Connectivity sampling period.
  double sample_period_seconds = 50.0;
  std::uint64_t seed = 0x71AEDA7AULL;
  /// Discard this initial fraction of the horizon (all-up start-up bias).
  double warmup_fraction = 0.1;
};

struct TimeAvailabilityResult {
  std::uint64_t samples = 0;
  std::uint64_t connected = 0;
  double availability = 0.0;
  util::Interval wilson95{0.0, 1.0};
  /// Long-run fraction of sampled instants with >= 1 component down (sanity:
  /// compare with 1 - (1-q)^(2N+2)).
  double any_component_down = 0.0;
};

/// Throws std::invalid_argument unless 2 <= options.nodes <= 95.
TimeAvailabilityResult simulate_time_availability(const TimeAvailabilityOptions& options);

}  // namespace drs::mc
