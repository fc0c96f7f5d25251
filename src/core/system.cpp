#include "core/system.hpp"

#include <map>
#include <stdexcept>

namespace drs::core {

std::size_t DrsSystem::recommended_event_reserve(std::uint16_t node_count,
                                                 const DrsConfig& config) {
  const std::size_t n = node_count;
  const std::size_t probes_per_node = 2u * (n > 0 ? n - 1u : 0u);
  if (config.probe_scheduler == ProbeScheduler::kLegacyPerPeer) {
    // Every probe of a cycle holds a queue slot for its spread send event and
    // its (possibly tombstoned) timeout event.
    return 4u * n * probes_per_node + 64u;
  }
  // Batched sweep: only the cycle tick, the sweep cursor and the timeout scan
  // stay pending per daemon. The rest is headroom for transient frame
  // deliveries plus discovery timers and path-probe timeouts under faults.
  return 16u * n + 4u * probes_per_node + 1024u;
}

DrsSystem::DrsSystem(net::ClusterNetwork& network, DrsConfig config)
    : network_(network), sweeper_(network.simulator()) {
  if (const auto error = config.validate()) {
    throw std::invalid_argument("DrsConfig: " + *error);
  }
  const std::uint16_t n = network_.node_count();
  icmp_.reserve(n);
  daemons_.reserve(n);
  // Pre-size the hot-path tables from the known monitoring fan-out so warmup
  // runs without a single table regrow (asserted by the zero-allocation
  // test). The demand is scheduler-dependent: the legacy per-peer path keeps
  // O(nodes x peers) events pending, the batched sweep O(nodes).
  const std::size_t probes_per_node = 2u * (n > 0 ? n - 1u : 0u);
  network_.simulator().reserve_events(recommended_event_reserve(n, config));
  // Timeout records linger for about one probe timeout past their send
  // (under half a cycle with the defaults); two cycles of system-wide probe
  // traffic is comfortable headroom against regrowth.
  sweeper_.reserve(2u * n * probes_per_node);
  for (net::NodeId i = 0; i < n; ++i) {
    icmp_.push_back(std::make_unique<proto::IcmpService>(network_.host(i)));
    icmp_.back()->reserve(2u * probes_per_node);
    // Daemons share one timeout sweeper: probe expiries pop in claimed-rank
    // (= send) order across the whole system, exactly like legacy's
    // per-probe timeout events.
    daemons_.push_back(std::make_unique<DrsDaemon>(network_.host(i),
                                                   *icmp_.back(), n, config,
                                                   sweeper_));
  }
}

void DrsSystem::start() {
  for (auto& daemon : daemons_) daemon->start();
}

void DrsSystem::stop() {
  for (auto& daemon : daemons_) daemon->stop();
  sweeper_.cancel();
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
  const util::SimTime deadline = sim.now() + timeout + util::Duration::millis(1);
  while (!done && sim.now() < deadline && !sim.idle()) {
    sim.step();
  }
  return replied;
}

void DrsSystem::settle(util::Duration warmup) {
  network_.simulator().run_for(warmup);
}

void DrsSystem::collect_metrics(obs::MetricRegistry& registry) const {
  const std::uint16_t n = network_.node_count();
  // Integer-millisecond downtime distribution across every (node, peer,
  // network) link, folded from the link-state histories.
  obs::IntHistogram& downtime = registry.histogram(
      "system.link_downtime_ms",
      {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000});
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
    set("route_changes", m.route_changes.size());
    set("echoes_answered", icmp_.at(i)->echo_requests_answered());

    // Down episodes: DOWN verdict until the matching recovery, per link.
    std::map<std::uint32_t, util::SimTime> down_since;
    for (const LinkTransition& t : daemons_.at(i)->links().history()) {
      const std::uint32_t link_key =
          (static_cast<std::uint32_t>(t.peer) << 8) | t.network;
      if (t.to == LinkState::kDown) {
        down_since.emplace(link_key, t.at);
      } else if (t.from == LinkState::kDown) {
        const auto it = down_since.find(link_key);
        if (it != down_since.end()) {
          downtime.add((t.at - it->second).ns() / 1'000'000);
          down_since.erase(it);
        }
      }
    }
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
  const sim::Simulator& sim = network_.simulator();
  registry.gauge("sim.event_slots")
      .set(static_cast<std::int64_t>(sim.event_slots()));
  registry.gauge("sim.pending_events")
      .set(static_cast<std::int64_t>(sim.pending_events()));
  registry.counter("sim.scheduled_events")
      .add(static_cast<std::int64_t>(sim.scheduled_events()));
  registry.counter("sim.executed_events")
      .add(static_cast<std::int64_t>(sim.executed_events()));
  const util::Arena::Stats& arena = network_.simulator().arena().stats();
  registry.gauge("arena.chunks").set(static_cast<std::int64_t>(arena.chunks));
  registry.gauge("arena.bytes_reserved")
      .set(static_cast<std::int64_t>(arena.bytes_reserved));
  registry.counter("arena.allocations")
      .add(static_cast<std::int64_t>(arena.allocations));
  registry.counter("arena.freelist_hits")
      .add(static_cast<std::int64_t>(arena.freelist_hits));
  registry.counter("arena.oversize")
      .add(static_cast<std::int64_t>(arena.oversize));
  registry.counter("arena.resets").add(static_cast<std::int64_t>(arena.resets));
}

}  // namespace drs::core
