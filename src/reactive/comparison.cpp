#include "reactive/comparison.hpp"

#include <memory>

#include "sim/timer.hpp"

namespace drs::reactive {

namespace {

/// Walks the observer's data-plane path by routing-table lookups: the hop
/// count a packet to `dst_ip` takes from `src`, or 0 when blackholed. The
/// TTL cap only guards against a transiently inconsistent table (reactive
/// protocols mid-convergence); delivered paths here are 1 or 2 hops.
std::uint32_t route_hops(net::ClusterNetwork& network, net::NodeId src,
                         net::Ipv4Addr dst_ip) {
  net::NodeId current = src;
  for (std::uint32_t hops = 1; hops <= 8; ++hops) {
    if (network.host(current).owns_ip(dst_ip)) return hops - 1;
    const auto route = network.host(current).routing_table().lookup(dst_ip);
    if (!route) return 0;
    const net::Ipv4Addr hop_ip =
        route->next_hop.is_unspecified() ? dst_ip : route->next_hop;
    net::NetworkId hop_network = 0;
    net::NodeId hop_node = 0;
    if (!net::parse_cluster_ip(hop_ip, hop_network, hop_node)) return 0;
    if (route->next_hop.is_unspecified()) return hops;  // delivered on-link
    current = hop_node;
  }
  return 0;
}

}  // namespace

ScenarioResult run_failure_scenario(
    const ScenarioConfig& config,
    const std::vector<net::ComponentIndex>& failed_components) {
  sim::Simulator simulator;
  net::ClusterNetwork network(
      simulator, {.node_count = config.node_count, .backplane = config.backplane});

  const std::unique_ptr<policy::RoutingPolicy> routing_policy =
      policy::make_policy(config.policy, network, config.params);
  routing_policy->start();
  proto::IcmpService* observer_icmp =
      &routing_policy->icmp(config.observer_src);

  // The application stand-in: a steady probe stream between the observers.
  struct ProbeRecord {
    util::SimTime sent;
    util::SimTime completed;
    bool success = false;
    bool done = false;
  };
  std::vector<ProbeRecord> records;
  records.reserve(1u << 14);
  const net::Ipv4Addr target =
      net::cluster_ip(net::kNetworkA, config.observer_dst);
  sim::PeriodicTimer probe_timer(simulator, config.app_probe_interval, [&] {
    const std::size_t index = records.size();
    records.push_back(ProbeRecord{simulator.now(), simulator.now(), false, false});
    proto::PingOptions options;
    options.timeout = config.app_probe_timeout;
    observer_icmp->ping(target, options,
                        [&records, index, &simulator](const proto::PingResult& r) {
                          records[index].success = r.success;
                          records[index].completed = simulator.now();
                          records[index].done = true;
                        });
  });
  probe_timer.start();

  simulator.run_for(config.warmup);
  const util::SimTime inject_at = simulator.now();
  const std::uint64_t messages_before = routing_policy->control_messages();
  const std::uint32_t hops_before = route_hops(network, config.observer_src, target);
  // Opt-in detection sampling: poll the cluster-wide routing-table version
  // sum until it first moves past the pre-injection baseline. The baseline
  // is read *before* injecting so policies that reroute synchronously in
  // their failure hook (static_resilient's local link sensing) register as
  // detected on the first sample.
  const auto version_sum = [&network, &config] {
    std::uint64_t sum = 0;
    for (net::NodeId i = 0; i < config.node_count; ++i) {
      sum += network.host(i).routing_table().version();
    }
    return sum;
  };
  const std::uint64_t versions_at_inject = version_sum();
  for (net::ComponentIndex component : failed_components) {
    network.set_component_failed(component, true);
    routing_policy->on_component_failed(component);
  }
  std::optional<util::Duration> detection;
  std::unique_ptr<sim::PeriodicTimer> detection_timer;
  if (config.track_detection) {
    detection_timer = std::make_unique<sim::PeriodicTimer>(
        simulator, config.detection_sample, [&] {
          if (!detection && version_sum() != versions_at_inject) {
            detection = simulator.now() - inject_at;
          }
        });
    detection_timer->start();
  }

  simulator.run_for(config.measure);
  probe_timer.stop();
  if (detection_timer) detection_timer->stop();
  // Let in-flight probes conclude so every record is classified.
  simulator.run_for(config.app_probe_timeout + util::Duration::millis(10));

  ScenarioResult result;
  result.protocol_messages =
      routing_policy->control_messages() - messages_before;
  result.detection = detection;
  result.path_hops_before = hops_before;
  result.path_hops_after = route_hops(network, config.observer_src, target);
  for (const ProbeRecord& record : records) {
    if (!record.done) continue;
    if (record.sent < inject_at) {
      if (record.success) result.healthy_before = true;
      continue;
    }
    ++result.probes_total;
    if (record.success) {
      if (!result.recovered) {
        result.recovered = true;
        result.app_outage = record.completed - inject_at;
      }
    } else {
      ++result.probes_lost;
      result.last_loss_after =
          std::max(result.last_loss_after, record.completed - inject_at);
    }
  }
  return result;
}

}  // namespace drs::reactive
