#include "cluster/fleet.hpp"

#include <cassert>
#include <optional>
#include <stdexcept>
#include <string>

namespace drs::cluster {

ComponentMap::Part ComponentMap::decode(net::ComponentIndex index) const {
  if (index >= count()) {
    throw std::out_of_range("fleet component index " + std::to_string(index) +
                            " is past the component count " +
                            std::to_string(count()));
  }
  const net::ComponentIndex cluster_span = clusters_ * stride_;
  if (index < cluster_span) {
    return Part{Part::Kind::kClusterPart,
                static_cast<net::ClusterId>(index / stride_), index % stride_};
  }
  if (index < relay()) {
    return Part{Part::Kind::kGateway,
                static_cast<net::ClusterId>(index - cluster_span), 0};
  }
  return Part{Part::Kind::kRelay, 0, 0};
}

FleetMembers::FleetMembers(const FleetConfig& config, Placement place)
    : config_(config),
      components_(config.clusters, config.nodes_per_cluster),
      place_(std::move(place)) {
  if (config_.clusters == 0) {
    throw std::invalid_argument("a fleet needs at least one cluster");
  }
  const std::uint16_t k = config_.clusters;
  const std::uint16_t n = config_.nodes_per_cluster;

  clusters_.reserve(k);
  for (net::ClusterId c = 0; c < k; ++c) {
    place_(c, [&](ClusterSite site) {
      const sim::EntityScope scope(site.sim, cluster_entity(c));
      clusters_.push_back(std::make_unique<net::ClusterNetwork>(
          site.sim, net::ClusterNetwork::Config{n, config_.backplane}));
    });
  }

  systems_.reserve(k);
  for (net::ClusterId c = 0; c < k; ++c) {
    place_(c, [&](ClusterSite site) {
      const sim::EntityScope scope(site.sim, cluster_entity(c));
      systems_.push_back(
          std::make_unique<core::DrsSystem>(*clusters_[c], config_.drs));
    });
  }

  // Gateways: one single-homed host per cluster on the shared relay hub.
  // Host ids live far above any cluster node id so ICMP idents (and trace
  // node fields) cannot collide with cluster daemons'.
  gateways_.reserve(k);
  gateway_icmp_.reserve(k);
  gateway_timers_.reserve(k);
  for (net::ClusterId c = 0; c < k; ++c) {
    place_(c, [&](ClusterSite site) {
      const sim::EntityScope scope(site.sim, cluster_entity(c));
      const auto gateway_id = static_cast<net::NodeId>(0xF000u + c);
      auto host = std::make_unique<net::Host>(site.sim, gateway_id);
      auto nic = std::make_unique<net::Nic>(gateway_id, net::kNetworkA,
                                            net::fleet_relay_mac(c),
                                            net::fleet_relay_ip(c), *host);
      site.relay.attach(*nic);
      net::HostAssembler::install_nic(*host, net::kNetworkA, std::move(nic));
      host->routing_table().install(net::Route{
          .prefix = net::fleet_relay_subnet(),
          .prefix_len = net::kFleetRelayPrefixLen,
          .out_ifindex = net::kNetworkA,
          .next_hop = net::Ipv4Addr{},
          .metric = 1,
          .origin = net::RouteOrigin::kStatic,
      });
      // Static ARP across the relay segment, like the clusters' boot-time
      // config.
      for (net::ClusterId peer = 0; peer < k; ++peer) {
        host->add_arp_entry(net::fleet_relay_ip(peer),
                            net::fleet_relay_mac(peer));
      }
      gateway_icmp_.push_back(std::make_unique<proto::IcmpService>(*host));
      gateway_icmp_.back()->reserve(16);
      gateways_.push_back(std::move(host));
      // Ring echo mesh: gateway c probes its successor every interval. The
      // managed per-probe timeout is fine here — k pings per interval is
      // nothing next to the clusters' probe load.
      proto::IcmpService* icmp = gateway_icmp_.back().get();
      const net::Ipv4Addr target = net::fleet_relay_ip(
          static_cast<net::ClusterId>((c + 1u) % k));
      const util::Duration timeout = config_.gateway_probe_timeout;
      gateway_timers_.push_back(std::make_unique<sim::PeriodicTimer>(
          site.sim, config_.gateway_probe_interval, [icmp, target, timeout] {
            proto::PingOptions options;
            options.timeout = timeout;
            icmp->ping(target, options, [](const proto::PingResult&) {});
          }));
    });
  }
}

FleetMembers::~FleetMembers() { stop(); }

void FleetMembers::start(bool boundary_seeds) {
  for (net::ClusterId c = 0; c < config_.clusters; ++c) {
    place_(c, [&](ClusterSite site) {
      const sim::EntityScope scope(site.sim, cluster_entity(c));
      systems_[c]->start();
    });
  }
  for (net::ClusterId c = 0; c < config_.clusters; ++c) {
    place_(c, [&](ClusterSite site) {
      if (gateway_timers_[c]->running()) return;
      const sim::EntityScope scope(site.sim, cluster_entity(c));
      std::optional<sim::BoundaryScope> boundary;
      if (boundary_seeds) boundary.emplace(site.sim);
      gateway_timers_[c]->start();
    });
  }
}

void FleetMembers::stop() {
  for (auto& timer : gateway_timers_) timer->stop();
  for (auto& system : systems_) system->stop();
}

void FleetMembers::set_failed(const ComponentMap::Part& part, bool failed) {
  assert(part.kind != ComponentMap::Part::Kind::kRelay);
  if (part.kind == ComponentMap::Part::Kind::kGateway) {
    gateways_.at(part.cluster)->nic(net::kNetworkA).set_failed(failed);
  } else {
    clusters_.at(part.cluster)->set_component_failed(part.local, failed);
  }
}

bool FleetMembers::failed(const ComponentMap::Part& part) const {
  assert(part.kind != ComponentMap::Part::Kind::kRelay);
  if (part.kind == ComponentMap::Part::Kind::kGateway) {
    return gateways_.at(part.cluster)->nic(net::kNetworkA).failed();
  }
  return clusters_.at(part.cluster)->component_failed(part.local);
}

void FleetMembers::schedule_failure(util::SimTime at,
                                    const ComponentMap::Part& part,
                                    bool failed) {
  place_(part.cluster, [&](ClusterSite site) {
    const sim::EntityScope scope(site.sim, cluster_entity(part.cluster));
    site.sim.schedule_at(at, [this, part, failed] { set_failed(part, failed); });
  });
}

bool FleetMembers::all_pristine() const {
  for (const auto& system : systems_) {
    if (!system->all_pristine()) return false;
  }
  return true;
}

std::uint64_t FleetMembers::total_probes_sent() const {
  std::uint64_t total = 0;
  for (const auto& system : systems_) total += system->total_probes_sent();
  return total;
}

void FleetMembers::collect_metrics(obs::MetricRegistry& registry,
                                   const net::Backplane::Counters& relay) const {
  registry.gauge("fleet.clusters").set(config_.clusters);
  registry.gauge("fleet.nodes_per_cluster").set(config_.nodes_per_cluster);

  // Flat sum of every cluster backplane's delivery-ring capacity, which must
  // stop growing once traffic peaks. A flat sum proves every member flat,
  // since the rings never shrink. The relay is left out: the sharded
  // engine's oracle has no ring, and both engines report one snapshot.
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

  registry.counter("relay.frames").add(static_cast<std::int64_t>(relay.frames));
  registry.counter("relay.bytes").add(static_cast<std::int64_t>(relay.bytes));
  registry.counter("relay.dropped_failed")
      .add(static_cast<std::int64_t>(relay.dropped_failed));
  registry.counter("relay.lost_in_flight")
      .add(static_cast<std::int64_t>(relay.lost_in_flight));
  registry.gauge("fleet.flight_slots").set(flight_slots);
}

Fleet::Fleet(sim::Simulator& sim, FleetConfig config)
    : sim_(sim),
      relay_([&] {
        const sim::EntityScope scope(sim, kRelayEntity);
        return std::make_unique<net::Backplane>(sim, net::kNetworkA,
                                                config.relay_backplane);
      }()),
      members_(config, [this](net::ClusterId, const SetupStep& step) {
        step(ClusterSite{sim_, *relay_});
      }) {}

void Fleet::schedule_component_failure(util::SimTime at,
                                       net::ComponentIndex index,
                                       bool failed) {
  const ComponentMap::Part part = members_.components().decode(index);
  if (part.kind != ComponentMap::Part::Kind::kRelay) {
    members_.schedule_failure(at, part, failed);
    return;
  }
  const sim::EntityScope scope(sim_, kRelayEntity);
  sim_.schedule_at(at, [this, failed] { relay_->set_failed(failed); });
}

bool Fleet::test_relay_reachability(net::ClusterId a, net::ClusterId b,
                                    util::Duration timeout) {
  bool replied = false;
  bool done = false;
  proto::PingOptions options;
  options.timeout = timeout;
  gateway_icmp(a).ping(net::fleet_relay_ip(b), options,
                       [&](const proto::PingResult& result) {
                         replied = result.success;
                         done = true;
                       });
  sim_.step_until(sim_.now() + timeout + util::Duration::millis(1),
                  [&] { return done; });
  return replied;
}

void Fleet::set_component_failed(net::ComponentIndex index, bool failed) {
  const ComponentMap::Part part = members_.components().decode(index);
  if (part.kind == ComponentMap::Part::Kind::kRelay) {
    relay_->set_failed(failed);
  } else {
    members_.set_failed(part, failed);
  }
}

bool Fleet::component_failed(net::ComponentIndex index) const {
  const ComponentMap::Part part = members_.components().decode(index);
  return part.kind == ComponentMap::Part::Kind::kRelay ? relay_->failed()
                                                      : members_.failed(part);
}

void Fleet::collect_metrics(obs::MetricRegistry& registry) const {
  members_.collect_metrics(registry, relay_->counters());
  const sim::Simulator* sims[] = {&sim_};
  sim::collect_metrics(sims, registry);
}

}  // namespace drs::cluster
