#include "cluster/failure_trace.hpp"

#include <algorithm>
#include <cassert>

namespace drs::cluster {

std::vector<TraceEvent> generate_trace(const TraceConfig& config) {
  assert(config.network_share >= 0.0 && config.network_share <= 1.0);
  util::Rng rng(config.seed);
  std::vector<TraceEvent> trace;

  const double horizon = config.horizon.to_seconds();
  for (net::NodeId node = 0; node < config.node_count; ++node) {
    // Poisson process per server: exponential inter-arrival times with mean
    // horizon / failures_per_server.
    if (config.failures_per_server <= 0.0) break;
    const double mean_gap = horizon / config.failures_per_server;
    double t = rng.next_exponential(mean_gap);
    while (t < horizon) {
      TraceEvent event;
      event.at = util::SimTime::zero() + util::Duration::from_seconds(t);
      event.repair_time =
          util::Duration::from_seconds(rng.next_exponential(
              std::max(config.mean_repair.to_seconds(), 1e-9)));
      if (rng.next_bernoulli(config.network_share)) {
        if (rng.next_bernoulli(config.backplane_share)) {
          event.failure_class = FailureClass::kBackplane;
          event.network = static_cast<net::NetworkId>(rng.next_below(2));
        } else {
          event.failure_class = FailureClass::kNic;
          event.node = node;
          event.network = static_cast<net::NetworkId>(rng.next_below(2));
        }
      } else {
        event.failure_class = FailureClass::kOther;
        event.node = node;
      }
      trace.push_back(event);
      t += rng.next_exponential(mean_gap);
    }
  }

  std::sort(trace.begin(), trace.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.at < b.at; });
  return trace;
}

TraceStats summarize(const std::vector<TraceEvent>& trace) {
  TraceStats stats;
  stats.total = trace.size();
  for (const auto& event : trace) {
    switch (event.failure_class) {
      case FailureClass::kNic:
        ++stats.nic;
        ++stats.network_related;
        break;
      case FailureClass::kBackplane:
        ++stats.backplane;
        ++stats.network_related;
        break;
      case FailureClass::kOther:
        break;
    }
  }
  return stats;
}

}  // namespace drs::cluster
