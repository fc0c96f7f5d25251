#include "cost/cost_model.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/system.hpp"
#include "net/network.hpp"

namespace drs::cost {

std::int64_t CostModel::node_limit() const {
  // Largest n with n·(n−1) <= pairs, found from the square root and nudged
  // onto the exact integer answer (n stays below 2^32, so n·(n+1) fits).
  const std::uint64_t pairs =
      std::numeric_limits<std::uint64_t>::max() / (2 * frame.frame_bits());
  auto n = static_cast<std::uint64_t>(std::sqrt(static_cast<double>(pairs))) + 1;
  while (n > 1 && n * (n - 1) > pairs) --n;
  while ((n + 1) * n <= pairs) ++n;
  return static_cast<std::int64_t>(n);
}

void CostModel::check_nodes(std::int64_t nodes) const {
  const std::int64_t limit = node_limit();
  if (nodes >= 0 && nodes <= limit) return;
  const std::string bound = std::to_string(limit);
  throw std::invalid_argument(
      "CostModel: n = " + std::to_string(nodes) + " is outside [0, " + bound +
      "] (the " + bound + "-node limit: a monitoring cycle's " +
      std::to_string(frame.frame_bits()) +
      "-bit frames, 2n(n-1) of them, must fit a 64-bit count)");
}

double CostModel::response_time_seconds(std::int64_t nodes,
                                        double budget_fraction) const {
  assert(budget_fraction > 0.0 && budget_fraction <= 1.0);
  return static_cast<double>(cycle_bits(nodes)) /
         (budget_fraction * bits_per_second);
}

std::int64_t CostModel::max_nodes(double budget_fraction,
                                  double deadline_seconds) const {
  std::int64_t best = 1;
  for (std::int64_t n = 2;; ++n) {
    if (response_time_seconds(n, budget_fraction) > deadline_seconds) break;
    best = n;
    if (n > 100000) break;  // defensive: the curve is monotone, this is moot
  }
  return best;
}

double CostModel::utilization(std::int64_t nodes, util::Duration interval) const {
  const double cycle_seconds =
      static_cast<double>(cycle_bits(nodes)) / bits_per_second;
  return cycle_seconds / interval.to_seconds();
}

MeasuredCycle measure_cycle(std::int64_t nodes, util::Duration interval,
                            std::uint64_t cycles, const CostModel& model) {
  // Checked before the narrowing below: 65538 would otherwise build a
  // 2-node cluster.
  if (nodes < 2 || nodes > std::int64_t{net::kMaxClusterNodes}) {
    const std::string limit = std::to_string(net::kMaxClusterNodes);
    throw std::invalid_argument(
        "measure_cycle: n = " + std::to_string(nodes) + " is outside [2, " +
        limit + "] (the " + limit +
        "-node limit: the cluster addressing plan numbers at most 254 x 256 "
        "nodes)");
  }
  sim::Simulator simulator;
  net::ClusterNetwork::Config net_config;
  net_config.node_count = static_cast<std::uint16_t>(nodes);
  net_config.backplane.kind = model.medium;
  net_config.backplane.bits_per_second = model.bits_per_second;
  net_config.backplane.per_frame_overhead_bytes =
      model.frame.count_preamble_and_ifg
          ? net::kEthPreambleBytes + net::kEthInterframeGapBytes
          : 0;
  net::ClusterNetwork network(simulator, net_config);

  core::DrsConfig drs_config;
  drs_config.probe_interval = interval;
  drs_config.probe_timeout = std::min(interval / 2, util::Duration::millis(200));
  drs_config.probe_data_bytes = model.frame.echo_data_bytes;
  core::DrsSystem system(network, drs_config);
  system.start();

  const util::Duration window = interval * static_cast<std::int64_t>(cycles);
  // Skip the first cycle (start-up transient), then measure over `cycles`.
  simulator.run_for(interval);
  const double busy_a0 = network.backplane(net::kNetworkA).busy_seconds();
  const double busy_b0 = network.backplane(net::kNetworkB).busy_seconds();
  simulator.run_for(window);

  MeasuredCycle measured;
  // Hub: busy time is the shared medium's occupancy. Switch: busy time
  // aggregates every ingress port, so normalize per port.
  const double ports =
      model.medium == net::MediumKind::kSwitch ? static_cast<double>(nodes) : 1.0;
  measured.utilization_network_a =
      (network.backplane(net::kNetworkA).busy_seconds() - busy_a0) /
      (window.to_seconds() * ports);
  measured.utilization_network_b =
      (network.backplane(net::kNetworkB).busy_seconds() - busy_b0) /
      (window.to_seconds() * ports);
  for (net::NodeId i = 0; i < network.node_count(); ++i) {
    measured.probes_sent += system.daemon(i).metrics().probes_sent;
    measured.probes_failed += system.daemon(i).metrics().probes_failed;
  }
  system.stop();
  return measured;
}

}  // namespace drs::cost
