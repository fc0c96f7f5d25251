// Synthetic hardware-failure traces.
//
// The paper motivates DRS with field data: "over a one-year period, thirteen
// percent of the hardware failures for 100 compute servers were network
// related". That dataset is not published, so examples and availability
// studies run on synthetic traces generated to the same statistics: Poisson
// failure arrivals per server, a configurable network-related share split
// between NICs and backplanes, and repair times drawn from an exponential
// distribution. Non-network failures are carried in the trace (they matter
// for availability accounting) but do not touch the network simulation.
#pragma once

#include <cstdint>
#include <vector>

#include "net/addr.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace drs::cluster {

enum class FailureClass : std::uint8_t {
  kNic,        // network: one interface
  kBackplane,  // network: a shared hub
  kOther,      // disk/memory/cpu/psu — not simulated, recorded for statistics
};

struct TraceEvent {
  util::SimTime at;
  FailureClass failure_class = FailureClass::kOther;
  net::NodeId node = 0;        // for kNic / kOther
  net::NetworkId network = 0;  // for kNic / kBackplane
  util::Duration repair_time = util::Duration::zero();
};

struct TraceConfig {
  std::uint16_t node_count = 10;
  /// Trace horizon in simulated time (a "year" may be compressed; rates are
  /// expressed per horizon).
  util::Duration horizon = util::Duration::seconds(3600);
  /// Expected hardware failures per server over the horizon.
  double failures_per_server = 0.5;
  /// Fraction of failures that are network-related (the paper's 13 %).
  double network_share = 0.13;
  /// Among network failures, fraction hitting a backplane/hub rather than a
  /// NIC (hubs are shared, fewer, but single points per network).
  double backplane_share = 0.2;
  /// Mean repair time (exponentially distributed).
  util::Duration mean_repair = util::Duration::seconds(60);
  std::uint64_t seed = 0xFA11FA11ULL;
};

/// Generates a trace sorted by event time.
std::vector<TraceEvent> generate_trace(const TraceConfig& config);

struct TraceStats {
  std::size_t total = 0;
  std::size_t network_related = 0;  // kNic + kBackplane
  std::size_t nic = 0;
  std::size_t backplane = 0;
  double network_fraction() const {
    return total == 0 ? 0.0
                      : static_cast<double>(network_related) /
                            static_cast<double>(total);
  }
};

TraceStats summarize(const std::vector<TraceEvent>& trace);

}  // namespace drs::cluster
