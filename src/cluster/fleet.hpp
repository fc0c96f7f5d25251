// Fleet topology: the paper's deployed system at its real scale.
//
// The MCI deployment ran DRS on ~27 voice-mail clusters of 8–12 servers
// each. A Fleet instantiates k independent ClusterNetworks (each with its
// own pair of backplanes and its own DrsSystem) on ONE simulator, plus an
// inter-cluster relay segment: a shared hub backplane carrying one gateway
// host per cluster. Gateways exchange a periodic echo mesh over the relay
// subnet (10.200.0.0/24), so inter-cluster reachability is continuously
// measured the same way DRS measures intra-cluster links.
//
// Isolation invariant: cluster-local subnets (10.1.0.0/16, 10.2.0.0/16) are
// reused verbatim in every cluster — the clusters are disjoint L2 islands,
// so a fleet member cluster behaves (and traces) byte-identically to a
// standalone cluster of the same size. Cross-cluster traffic travels only
// gateway-to-gateway on relay addresses; cluster addresses never appear on
// the relay segment, so replies cannot be misrouted into the wrong island.
//
// The Fleet is a net::FailureDomain: chaos schedules address a flat
// component space of k*(2n+2) cluster components (cluster-major, each block
// in ClusterNetwork's canonical numbering), then the k gateway NICs, then
// the relay backplane.
//
// Scheduling entities (sim::EntityScope): the relay hub is one entity and
// each cluster — its networks, DrsSystem, gateway host and echo timer — is
// another, so same-time events of different clusters order by cluster and
// the hub's deliveries order before all of them. That is what lets
// cluster::ShardedFleet compute identical event keys on every shard.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/system.hpp"
#include "net/host.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "proto/icmp.hpp"
#include "sim/timer.hpp"

namespace drs::cluster {

/// The relay hub's scheduling entity; it orders before every cluster's.
inline constexpr sim::Entity kRelayEntity = 1;
/// Cluster `c`'s scheduling entity.
constexpr sim::Entity cluster_entity(net::ClusterId c) {
  return kRelayEntity + 1u + c;
}
static_assert(cluster_entity(0xFFFFu) <= sim::kMaxEntity,
              "every cluster id needs its own scheduling entity");

struct FleetConfig {
  /// The paper's deployment: 27 clusters.
  std::uint16_t clusters = 27;
  std::uint16_t nodes_per_cluster = 8;
  core::DrsConfig drs;
  /// Intra-cluster backplanes (each cluster gets its own pair).
  net::Backplane::Config backplane;
  /// The shared inter-cluster relay hub.
  net::Backplane::Config relay_backplane;
  /// Gateway echo mesh: each gateway pings its successor's relay address
  /// once per interval (ring coverage of the relay segment).
  util::Duration gateway_probe_interval = util::Duration::millis(100);
  util::Duration gateway_probe_timeout = util::Duration::millis(40);
};

class Fleet : public net::FailureDomain {
 public:
  Fleet(sim::Simulator& sim, FleetConfig config);
  ~Fleet() override;
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::uint16_t cluster_count() const { return config_.clusters; }
  std::uint16_t nodes_per_cluster() const { return config_.nodes_per_cluster; }
  const FleetConfig& config() const { return config_; }

  net::ClusterNetwork& cluster(net::ClusterId c) { return *clusters_.at(c); }
  core::DrsSystem& system(net::ClusterId c) { return *systems_.at(c); }
  const core::DrsSystem& system(net::ClusterId c) const { return *systems_.at(c); }
  net::Host& gateway(net::ClusterId c) { return *gateways_.at(c); }
  proto::IcmpService& gateway_icmp(net::ClusterId c) { return *gateway_icmp_.at(c); }
  net::Backplane& relay_backplane() { return *relay_; }

  /// Starts every cluster's DRS system and the gateway echo mesh.
  void start();
  void stop();

  /// Advances the shared simulation (all clusters progress together).
  void settle(util::Duration warmup);

  /// Schedules a component fail/restore at absolute time `at`, keyed under
  /// the entity that owns the component: its cluster for cluster components
  /// and gateway NICs, the relay hub for the relay backplane.
  void schedule_component_failure(util::SimTime at, net::ComponentIndex index,
                                  bool failed);

  /// Every cluster back to the healthy steady state (see
  /// DrsSystem::all_pristine); gateways carry no per-run state to check.
  bool all_pristine() const;

  /// End-to-end inter-cluster check: routed echo from cluster `a`'s gateway
  /// to cluster `b`'s relay address, advancing simulated time until it
  /// concludes. A measurement, not a pure query.
  bool test_relay_reachability(net::ClusterId a, net::ClusterId b,
                               util::Duration timeout = util::Duration::millis(250));

  // -- FailureDomain ---------------------------------------------------------
  sim::Simulator& simulator() override { return sim_; }
  /// k*(2n+2) cluster components + k gateway NICs + the relay backplane.
  net::ComponentIndex component_count() const override;
  void set_component_failed(net::ComponentIndex index, bool failed) override;
  bool component_failed(net::ComponentIndex index) const override;
  std::string describe_component(net::ComponentIndex index) const override;

  /// Flat index of cluster `c`'s local component (ClusterNetwork numbering).
  net::ComponentIndex cluster_component(net::ClusterId c,
                                        net::ComponentIndex local) const {
    return static_cast<net::ComponentIndex>(c * cluster_stride() + local);
  }
  net::ComponentIndex gateway_component(net::ClusterId c) const {
    return static_cast<net::ComponentIndex>(config_.clusters * cluster_stride() + c);
  }
  net::ComponentIndex relay_backplane_component() const {
    return static_cast<net::ComponentIndex>(config_.clusters * cluster_stride() +
                                            config_.clusters);
  }

  /// Fleet-wide metric snapshot: per-cluster daemon aggregates
  /// ("cluster.<c>.probes_sent", ...), per-gateway echo counters, relay
  /// backplane counters, the summed "fleet.flight_slots" pool gauge, and the
  /// same sim.*/arena.* allocator-pressure metrics DrsSystem reports.
  void collect_metrics(obs::MetricRegistry& registry) const;

  std::uint64_t total_probes_sent() const;

 private:
  std::uint32_t cluster_stride() const {
    return 2u * config_.nodes_per_cluster + 2u;
  }
  sim::Entity component_entity(net::ComponentIndex index) const;

  sim::Simulator& sim_;
  FleetConfig config_;
  std::unique_ptr<net::Backplane> relay_;
  std::vector<std::unique_ptr<net::ClusterNetwork>> clusters_;
  std::vector<std::unique_ptr<core::DrsSystem>> systems_;
  std::vector<std::unique_ptr<net::Host>> gateways_;
  std::vector<std::unique_ptr<proto::IcmpService>> gateway_icmp_;
  std::vector<std::unique_ptr<sim::PeriodicTimer>> gateway_timers_;
};

}  // namespace drs::cluster
