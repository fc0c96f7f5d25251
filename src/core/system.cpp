#include "core/system.hpp"

#include <cmath>
#include <stdexcept>

namespace drs::core {

std::size_t DrsSystem::recommended_event_reserve(std::uint16_t node_count) {
  const std::size_t n = node_count;
  const std::size_t probes_per_node = 2u * (n > 0 ? n - 1u : 0u);
  // Only the cycle tick stays pending per daemon; the system's probe sends
  // and probe timeouts are one scheduler event each. The rest is headroom
  // for transient frame deliveries plus discovery timers and path-probe
  // timeouts under faults.
  return 16u * n + 4u * probes_per_node + 1024u;
}

DrsSystem::DrsSystem(net::ClusterNetwork& network, DrsConfig config)
    : network_(network), scheduler_(network.simulator()) {
  if (const auto error = config.validate()) {
    throw std::invalid_argument("DrsConfig: " + *error);
  }
  const std::uint16_t n = network_.node_count();
  icmp_.reserve(n);
  daemons_.reserve(n);
  // Pre-size the tables every sweep probe touches, from the known monitoring
  // fan-out, so warmup runs without a single regrow (asserted by the
  // zero-allocation test). The probe sweep keeps O(nodes) events pending.
  // Sweep probes are raw echoes and never enter an IcmpService's
  // outstanding table, so that table is not pre-sized.
  const std::size_t probes_per_node = 2u * (n > 0 ? n - 1u : 0u);
  network_.simulator().reserve_events(recommended_event_reserve(n));
  // Each daemon holds at most one live cursor, and the ring drops its
  // consumed prefix once that reaches half its size. A timeout record lives
  // about one probe timeout past its send, so the record ring holds the
  // system's probes of one timeout window, plus about one still in flight
  // per daemon at the window's edge (fig1_n90's shape peaks at 3,960
  // records against a 3,903-record window). A saturated hub keeps more
  // probes outstanding; the record ring then grows during warmup.
  const double window = static_cast<double>(n * probes_per_node) *
                        config.probe_timeout.to_seconds() /
                        config.probe_interval.to_seconds();
  scheduler_.reserve(2u * n, static_cast<std::size_t>(std::ceil(window)) + n);
  for (net::NodeId i = 0; i < n; ++i) {
    icmp_.push_back(std::make_unique<proto::IcmpService>(network_.host(i)));
    // Daemons share one probe scheduler: sends and expiries pop in
    // claimed-rank order across the whole system.
    daemons_.push_back(std::make_unique<DrsDaemon>(network_.host(i),
                                                   *icmp_.back(), n, config,
                                                   scheduler_));
  }
}

void DrsSystem::start() {
  for (auto& daemon : daemons_) daemon->start();
}

void DrsSystem::stop() {
  for (auto& daemon : daemons_) daemon->stop();
  scheduler_.cancel();
}

std::uint64_t DrsSystem::total_probes_sent() const {
  std::uint64_t total = 0;
  for (const auto& daemon : daemons_) total += daemon->metrics().probes_sent;
  return total;
}

std::uint64_t DrsSystem::total_control_messages() const {
  std::uint64_t total = 0;
  for (const auto& daemon : daemons_) {
    total += daemon->metrics().control_messages_sent;
  }
  return total;
}

std::uint64_t DrsSystem::total_route_installs() const {
  std::uint64_t total = 0;
  for (const auto& daemon : daemons_) total += daemon->metrics().route_installs;
  return total;
}

bool DrsSystem::all_pristine() const {
  const std::uint16_t n = network_.node_count();
  for (net::NodeId i = 0; i < n; ++i) {
    const DrsDaemon& daemon = *daemons_.at(i);
    if (!daemon.host_routes_empty() || daemon.active_leases() != 0 ||
        daemon.links().down_count() != 0) {
      return false;
    }
    for (net::NodeId j = 0; j < n; ++j) {
      if (i != j && daemon.peer_mode(j) != PeerRouteMode::kDirect) return false;
    }
  }
  return true;
}

bool DrsSystem::test_reachability(net::NodeId a, net::NodeId b,
                                  util::Duration timeout) {
  bool replied = false;
  bool done = false;
  proto::PingOptions options;
  options.timeout = timeout;
  icmp_.at(a)->ping(net::cluster_ip(net::kNetworkA, b), options,
                    [&](const proto::PingResult& result) {
                      replied = result.success;
                      done = true;
                    });
  sim::Simulator& sim = network_.simulator();
  sim.step_until(sim.now() + timeout + util::Duration::millis(1),
                 [&] { return done; });
  return replied;
}

void DrsSystem::settle(util::Duration warmup) {
  network_.simulator().run_for(warmup);
}

void DrsSystem::collect_metrics(obs::MetricRegistry& registry) const {
  const std::uint16_t n = network_.node_count();
  // Integer-millisecond downtime distribution across every (node, peer,
  // network) link: the sum of the daemons' closed-episode histograms.
  obs::IntHistogram& downtime = registry.histogram(
      "system.link_downtime_ms",
      {kDowntimeEdgesMs.begin(), kDowntimeEdgesMs.end()});
  registry.gauge("system.nodes").set(n);

  for (net::NodeId i = 0; i < n; ++i) {
    const DaemonMetrics& m = daemons_.at(i)->metrics();
    const auto set = [&](const char* name, std::uint64_t value) {
      registry.counter(obs::MetricRegistry::scoped("daemon", i, name))
          .add(static_cast<std::int64_t>(value));
    };
    set("probes_sent", m.probes_sent);
    set("probes_failed", m.probes_failed);
    set("links_declared_down", m.links_declared_down);
    set("links_declared_up", m.links_declared_up);
    set("discoveries_started", m.discoveries_started);
    set("offers_sent", m.offers_sent);
    set("offers_received", m.offers_received);
    set("relays_selected", m.relays_selected);
    set("standby_activations", m.standby_activations);
    set("route_sets_honored", m.route_sets_honored);
    set("route_installs", m.route_installs);
    set("route_removals", m.route_removals);
    set("control_messages_sent", m.control_messages_sent);
    set("leases_expired", m.leases_expired);
    set("route_changes", m.route_changes);
    set("echoes_answered", icmp_.at(i)->echo_requests_answered());
    const auto& episodes = daemons_.at(i)->links().downtime_ms();
    if (episodes) downtime.merge(*episodes);
  }

  for (net::NetworkId k = 0; k < net::kNetworksPerHost; ++k) {
    const net::Backplane& bp = network_.backplane(k);
    const net::Backplane::Counters& c = bp.counters();
    const auto set = [&](const char* name, std::uint64_t value) {
      registry.counter(obs::MetricRegistry::scoped("backplane", k, name))
          .add(static_cast<std::int64_t>(value));
    };
    set("frames", c.frames);
    set("bytes", c.bytes);
    set("dropped_failed", c.dropped_failed);
    set("dropped_backlog", c.dropped_backlog);
    set("lost_in_flight", c.lost_in_flight);
    set("lost_random", c.lost_random);
    registry.gauge(obs::MetricRegistry::scoped("backplane", k, "flight_slots"))
        .set(static_cast<std::int64_t>(bp.flight_slots()));
  }

  // Allocator-pressure gauges: under steady-state monitoring every one of
  // these is flat — event slots, flight slots, and arena chunks stop growing
  // once traffic peaks, and further probe cycles recycle pooled storage.
  const sim::Simulator* sims[] = {&network_.simulator()};
  sim::collect_metrics(sims, registry);
}

}  // namespace drs::core
