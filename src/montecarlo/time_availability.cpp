#include "montecarlo/time_availability.hpp"

#include <stdexcept>
#include <vector>

#include "analytic/enumerate.hpp"
#include "analytic/survivability.hpp"
#include "util/rng.hpp"

namespace drs::mc {

TimeAvailabilityResult simulate_time_availability(
    const TimeAvailabilityOptions& options) {
  if (const auto error = analytic::validate_failure_domain(options.nodes, 0)) {
    throw std::invalid_argument("simulate_time_availability: " + *error);
  }
  const std::int64_t components = analytic::component_count(options.nodes);
  util::Rng rng(options.seed);

  // Per-component renewal state: current phase and when it flips.
  struct ComponentState {
    bool down = false;
    double next_flip = 0.0;
  };
  std::vector<ComponentState> states(static_cast<std::size_t>(components));
  for (auto& state : states) {
    state.next_flip = rng.next_exponential(options.reliability.mtbf_seconds);
  }

  TimeAvailabilityResult result;
  const double start = options.horizon_seconds * options.warmup_fraction;
  analytic::ComponentSet failed;
  for (double t = options.sample_period_seconds; t < options.horizon_seconds;
       t += options.sample_period_seconds) {
    // Advance every component's renewal process to time t.
    for (auto& state : states) {
      while (state.next_flip <= t) {
        state.down = !state.down;
        state.next_flip += rng.next_exponential(
            state.down ? options.reliability.mttr_seconds
                       : options.reliability.mtbf_seconds);
      }
    }
    if (t < start) continue;  // warm-up: skip the all-up transient

    failed.clear();
    bool any_down = false;
    for (std::int64_t c = 0; c < components; ++c) {
      if (states[static_cast<std::size_t>(c)].down) {
        failed.set(c);
        any_down = true;
      }
    }
    ++result.samples;
    if (any_down) {
      result.any_component_down += 1.0;
    }
    if (analytic::pair_connected(options.nodes, failed, 0, 1)) {
      ++result.connected;
    }
  }

  if (result.samples > 0) {
    result.availability = static_cast<double>(result.connected) /
                          static_cast<double>(result.samples);
    result.any_component_down /= static_cast<double>(result.samples);
  }
  result.wilson95 = util::wilson_interval(result.connected, result.samples);
  return result;
}

}  // namespace drs::mc
