#include "cluster/fleet.hpp"

#include <cassert>
#include <sstream>

namespace drs::cluster {

Fleet::Fleet(sim::Simulator& sim, FleetConfig config)
    : sim_(sim), config_(config) {
  assert(config_.clusters >= 1);
  const std::uint16_t k = config_.clusters;
  const std::uint16_t n = config_.nodes_per_cluster;

  {
    const sim::EntityScope scope(sim_, kRelayEntity);
    relay_ = std::make_unique<net::Backplane>(sim_, net::kNetworkA,
                                              config_.relay_backplane);
  }

  clusters_.reserve(k);
  for (net::ClusterId c = 0; c < k; ++c) {
    const sim::EntityScope scope(sim_, cluster_entity(c));
    clusters_.push_back(std::make_unique<net::ClusterNetwork>(
        sim_, net::ClusterNetwork::Config{n, config_.backplane}));
  }

  // One up-front reservation derived from the fleet geometry (k clusters of
  // n nodes plus the gateway mesh); the per-cluster reservations DrsSystem
  // makes below are then no-ops, since queue reservation only grows.
  sim_.reserve_events(
      static_cast<std::size_t>(k) *
          core::DrsSystem::recommended_event_reserve(n) +
      16u * k + 1024u);

  systems_.reserve(k);
  for (net::ClusterId c = 0; c < k; ++c) {
    const sim::EntityScope scope(sim_, cluster_entity(c));
    systems_.push_back(
        std::make_unique<core::DrsSystem>(*clusters_[c], config_.drs));
  }

  // Gateways: one single-homed host per cluster on the shared relay hub.
  // Host ids live far above any cluster node id so ICMP idents (and trace
  // node fields) cannot collide with cluster daemons'.
  gateways_.reserve(k);
  gateway_icmp_.reserve(k);
  gateway_timers_.reserve(k);
  for (net::ClusterId c = 0; c < k; ++c) {
    const sim::EntityScope scope(sim_, cluster_entity(c));
    const auto gateway_id = static_cast<net::NodeId>(0xF000u + c);
    auto host = std::make_unique<net::Host>(sim_, gateway_id);
    auto nic = std::make_unique<net::Nic>(gateway_id, net::kNetworkA,
                                          net::fleet_relay_mac(c),
                                          net::fleet_relay_ip(c), *host);
    relay_->attach(*nic);
    net::HostAssembler::install_nic(*host, net::kNetworkA, std::move(nic));
    host->routing_table().install(net::Route{
        .prefix = net::fleet_relay_subnet(),
        .prefix_len = net::kFleetRelayPrefixLen,
        .out_ifindex = net::kNetworkA,
        .next_hop = net::Ipv4Addr{},
        .metric = 1,
        .origin = net::RouteOrigin::kStatic,
    });
    gateways_.push_back(std::move(host));
  }
  // Static ARP across the relay segment, like the clusters' boot-time config.
  for (auto& gateway : gateways_) {
    for (net::ClusterId c = 0; c < k; ++c) {
      gateway->add_arp_entry(net::fleet_relay_ip(c), net::fleet_relay_mac(c));
    }
  }
  for (net::ClusterId c = 0; c < k; ++c) {
    const sim::EntityScope scope(sim_, cluster_entity(c));
    gateway_icmp_.push_back(
        std::make_unique<proto::IcmpService>(*gateways_[c]));
    gateway_icmp_.back()->reserve(16);
    // Ring echo mesh: gateway c probes its successor every interval. The
    // managed per-probe timeout is fine here — k pings per interval is
    // nothing next to the clusters' probe load.
    proto::IcmpService* icmp = gateway_icmp_.back().get();
    const net::Ipv4Addr target = net::fleet_relay_ip(
        static_cast<net::ClusterId>((c + 1u) % k));
    const util::Duration timeout = config_.gateway_probe_timeout;
    gateway_timers_.push_back(std::make_unique<sim::PeriodicTimer>(
        sim_, config_.gateway_probe_interval, [icmp, target, timeout] {
          proto::PingOptions options;
          options.timeout = timeout;
          icmp->ping(target, options, [](const proto::PingResult&) {});
        }));
  }
}

Fleet::~Fleet() { stop(); }

void Fleet::start() {
  for (net::ClusterId c = 0; c < config_.clusters; ++c) {
    const sim::EntityScope scope(sim_, cluster_entity(c));
    systems_[c]->start();
  }
  for (net::ClusterId c = 0; c < config_.clusters; ++c) {
    const sim::EntityScope scope(sim_, cluster_entity(c));
    if (!gateway_timers_[c]->running()) gateway_timers_[c]->start();
  }
}

void Fleet::stop() {
  for (auto& timer : gateway_timers_) timer->stop();
  for (auto& system : systems_) system->stop();
}

void Fleet::settle(util::Duration warmup) { sim_.run_for(warmup); }

sim::Entity Fleet::component_entity(net::ComponentIndex index) const {
  const net::ComponentIndex cluster_span = config_.clusters * cluster_stride();
  if (index < cluster_span) {
    return cluster_entity(
        static_cast<net::ClusterId>(index / cluster_stride()));
  }
  const net::ComponentIndex tail = index - cluster_span;
  if (tail < config_.clusters) {
    return cluster_entity(static_cast<net::ClusterId>(tail));
  }
  return kRelayEntity;
}

void Fleet::schedule_component_failure(util::SimTime at,
                                       net::ComponentIndex index,
                                       bool failed) {
  const sim::EntityScope scope(sim_, component_entity(index));
  sim_.schedule_at(at, [this, index, failed] {
    set_component_failed(index, failed);
  });
}

bool Fleet::all_pristine() const {
  for (const auto& system : systems_) {
    if (!system->all_pristine()) return false;
  }
  return true;
}

bool Fleet::test_relay_reachability(net::ClusterId a, net::ClusterId b,
                                    util::Duration timeout) {
  bool replied = false;
  bool done = false;
  proto::PingOptions options;
  options.timeout = timeout;
  gateway_icmp_.at(a)->ping(net::fleet_relay_ip(b), options,
                            [&](const proto::PingResult& result) {
                              replied = result.success;
                              done = true;
                            });
  const util::SimTime deadline = sim_.now() + timeout + util::Duration::millis(1);
  while (!done && sim_.now() < deadline && !sim_.idle()) {
    sim_.step();
  }
  return replied;
}

net::ComponentIndex Fleet::component_count() const {
  return static_cast<net::ComponentIndex>(config_.clusters * cluster_stride() +
                                          config_.clusters + 1u);
}

void Fleet::set_component_failed(net::ComponentIndex index, bool failed) {
  const net::ComponentIndex cluster_span = config_.clusters * cluster_stride();
  if (index < cluster_span) {
    clusters_.at(index / cluster_stride())
        ->set_component_failed(index % cluster_stride(), failed);
    return;
  }
  const net::ComponentIndex tail = index - cluster_span;
  if (tail < config_.clusters) {
    gateways_.at(tail)->nic(net::kNetworkA).set_failed(failed);
    return;
  }
  assert(tail == config_.clusters);
  relay_->set_failed(failed);
}

bool Fleet::component_failed(net::ComponentIndex index) const {
  const net::ComponentIndex cluster_span = config_.clusters * cluster_stride();
  if (index < cluster_span) {
    return clusters_.at(index / cluster_stride())
        ->component_failed(index % cluster_stride());
  }
  const net::ComponentIndex tail = index - cluster_span;
  if (tail < config_.clusters) {
    return gateways_.at(tail)->nic(net::kNetworkA).failed();
  }
  assert(tail == config_.clusters);
  return relay_->failed();
}

std::string Fleet::describe_component(net::ComponentIndex index) const {
  std::ostringstream out;
  const net::ComponentIndex cluster_span = config_.clusters * cluster_stride();
  if (index < cluster_span) {
    out << "cluster(" << index / cluster_stride() << ")/"
        << clusters_.at(index / cluster_stride())
               ->describe_component(index % cluster_stride());
  } else if (index - cluster_span < config_.clusters) {
    out << "gateway(" << index - cluster_span << ")";
  } else {
    out << "relay-backplane";
  }
  return out.str();
}

std::uint64_t Fleet::total_probes_sent() const {
  std::uint64_t total = 0;
  for (const auto& system : systems_) total += system->total_probes_sent();
  return total;
}

void Fleet::collect_metrics(obs::MetricRegistry& registry) const {
  registry.gauge("fleet.clusters").set(config_.clusters);
  registry.gauge("fleet.nodes_per_cluster").set(config_.nodes_per_cluster);

  // Flat sum of every pool gauge that must stop growing once traffic peaks:
  // cluster backplanes' in-flight pools plus the relay hub's. A flat sum
  // proves every member flat, since the pools never shrink.
  std::int64_t flight_slots = 0;

  for (net::ClusterId c = 0; c < config_.clusters; ++c) {
    const core::DrsSystem& system = *systems_.at(c);
    std::uint64_t probes_sent = 0, probes_failed = 0, links_down = 0,
                  links_up = 0, relays_selected = 0, control_sent = 0,
                  route_installs = 0;
    for (net::NodeId i = 0; i < config_.nodes_per_cluster; ++i) {
      const core::DaemonMetrics& m = system.daemon(i).metrics();
      probes_sent += m.probes_sent;
      probes_failed += m.probes_failed;
      links_down += m.links_declared_down;
      links_up += m.links_declared_up;
      relays_selected += m.relays_selected;
      control_sent += m.control_messages_sent;
      route_installs += m.route_installs;
    }
    const auto set = [&](const char* name, std::uint64_t value) {
      registry.counter(obs::MetricRegistry::scoped("cluster", c, name))
          .add(static_cast<std::int64_t>(value));
    };
    set("probes_sent", probes_sent);
    set("probes_failed", probes_failed);
    set("links_declared_down", links_down);
    set("links_declared_up", links_up);
    set("relays_selected", relays_selected);
    set("control_messages_sent", control_sent);
    set("route_installs", route_installs);
    for (net::NetworkId net_id = 0; net_id < net::kNetworksPerHost; ++net_id) {
      flight_slots += static_cast<std::int64_t>(
          clusters_.at(c)->backplane(net_id).flight_slots());
    }
  }

  for (net::ClusterId c = 0; c < config_.clusters; ++c) {
    const proto::IcmpService& icmp = *gateway_icmp_.at(c);
    const auto set = [&](const char* name, std::uint64_t value) {
      registry.counter(obs::MetricRegistry::scoped("gateway", c, name))
          .add(static_cast<std::int64_t>(value));
    };
    set("echoes_sent", icmp.probes_sent());
    set("echoes_timed_out", icmp.probes_timed_out());
    set("echoes_answered", icmp.echo_requests_answered());
  }

  const net::Backplane::Counters& relay = relay_->counters();
  registry.counter("relay.frames").add(static_cast<std::int64_t>(relay.frames));
  registry.counter("relay.bytes").add(static_cast<std::int64_t>(relay.bytes));
  registry.counter("relay.dropped_failed")
      .add(static_cast<std::int64_t>(relay.dropped_failed));
  registry.counter("relay.lost_in_flight")
      .add(static_cast<std::int64_t>(relay.lost_in_flight));
  flight_slots += static_cast<std::int64_t>(relay_->flight_slots());
  registry.gauge("fleet.flight_slots").set(flight_slots);

  // Allocator-pressure metrics, same names as DrsSystem::collect_metrics so
  // the zero-allocation audit reads either topology identically.
  registry.gauge("sim.event_slots")
      .set(static_cast<std::int64_t>(sim_.event_slots()));
  registry.gauge("sim.pending_events")
      .set(static_cast<std::int64_t>(sim_.pending_events()));
  registry.counter("sim.scheduled_events")
      .add(static_cast<std::int64_t>(sim_.scheduled_events()));
  registry.counter("sim.executed_events")
      .add(static_cast<std::int64_t>(sim_.executed_events()));
  const util::Arena::Stats& arena = sim_.arena().stats();
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

}  // namespace drs::cluster
