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
// Failure injection addresses a flat component space (ComponentMap): k*(2n+2)
// cluster components (cluster-major, each block in ClusterNetwork's canonical
// numbering), then the k gateway NICs, then the relay backplane.
//
// Scheduling entities (sim::EntityScope): the relay hub is one entity and
// each cluster — its networks, DrsSystem, gateway host and echo timer — is
// another, so same-time events of different clusters order by cluster and
// the hub's deliveries order before all of them. That is what lets
// cluster::ShardedFleet compute identical event keys on every shard.
//
// One fleet model serves both engines. FleetMembers builds, starts, fails
// and reports every per-cluster part; it is told only where each cluster
// lives. Fleet puts every cluster on one simulator and every gateway on one
// relay Backplane. cluster::ShardedFleet (partition.hpp) puts each cluster on
// its shard's simulator and relay stub, and runs the hub on an oracle that
// holds the same net::Backplane::Medium.
#pragma once

#include <cstdint>
#include <functional>
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

/// The fleet's flat failure-component space (see the file comment). Both
/// fleets number, decode and range-check component indices through it.
class ComponentMap {
 public:
  /// What one flat index names.
  struct Part {
    enum class Kind : std::uint8_t { kClusterPart, kGateway, kRelay };
    Kind kind = Kind::kRelay;
    net::ClusterId cluster = 0;     // the owning cluster, unless kRelay
    net::ComponentIndex local = 0;  // ClusterNetwork numbering, kClusterPart
  };

  ComponentMap(std::uint16_t clusters, std::uint16_t nodes_per_cluster)
      : clusters_(clusters), stride_(2u * nodes_per_cluster + 2u) {}

  /// k*(2n+2) cluster components + k gateway NICs + the relay backplane.
  net::ComponentIndex count() const { return relay() + 1u; }
  /// Flat index of cluster `c`'s local component (ClusterNetwork numbering).
  net::ComponentIndex cluster_component(net::ClusterId c,
                                        net::ComponentIndex local) const {
    return static_cast<net::ComponentIndex>(c * stride_ + local);
  }
  net::ComponentIndex gateway(net::ClusterId c) const {
    return static_cast<net::ComponentIndex>(clusters_ * stride_ + c);
  }
  net::ComponentIndex relay() const {
    return static_cast<net::ComponentIndex>(clusters_ * stride_ + clusters_);
  }

  /// Throws std::out_of_range for an index at or past count().
  Part decode(net::ComponentIndex index) const;

 private:
  std::uint32_t clusters_;
  std::uint32_t stride_;
};

/// Where one cluster lives: the simulator its parts run on and the relay
/// backplane its gateway attaches to.
struct ClusterSite {
  sim::Simulator& sim;
  net::Backplane& relay;
};

/// Runs one setup step of cluster `c` at the cluster's site. Fleet runs the
/// step in place; ShardedFleet runs it inside a setup segment of c's shard,
/// so the step's trace emissions merge where Fleet's tracer records them.
using SetupStep = std::function<void(ClusterSite site)>;
using Placement = std::function<void(net::ClusterId c, const SetupStep& step)>;

/// Everything a fleet owns per cluster: its ClusterNetwork and DrsSystem,
/// and its gateway host with the ICMP service and echo-mesh timer. The relay
/// hub is not a member: Fleet runs it as a Backplane, ShardedFleet as an
/// oracle.
class FleetMembers {
 public:
  /// Builds the clusters through `place`, every step under its cluster's
  /// entity. Throws std::invalid_argument for a fleet of zero clusters (and
  /// ClusterNetwork's for a node count it cannot address).
  FleetMembers(const FleetConfig& config, Placement place);
  ~FleetMembers();
  FleetMembers(const FleetMembers&) = delete;
  FleetMembers& operator=(const FleetMembers&) = delete;

  const FleetConfig& config() const { return config_; }
  const ComponentMap& components() const { return components_; }

  net::ClusterNetwork& cluster(net::ClusterId c) { return *clusters_.at(c); }
  core::DrsSystem& system(net::ClusterId c) { return *systems_.at(c); }
  const core::DrsSystem& system(net::ClusterId c) const {
    return *systems_.at(c);
  }
  net::Host& gateway(net::ClusterId c) { return *gateways_.at(c); }
  proto::IcmpService& gateway_icmp(net::ClusterId c) {
    return *gateway_icmp_.at(c);
  }

  /// Starts every cluster's DRS system, then every gateway's echo timer.
  /// With `boundary_seeds` the timers start under sim::BoundaryScope: the
  /// echo mesh is the only source of relay traffic, and a sharded engine's
  /// window bound counts only tagged causes (docs/SHARDING.md). Only that
  /// engine drains a queue's index of tagged events, so Fleet leaves them
  /// off.
  void start(bool boundary_seeds);
  void stop();

  /// Fails or restores a cluster part or a gateway NIC. The relay belongs
  /// to the fleet, not to its members.
  void set_failed(const ComponentMap::Part& part, bool failed);
  bool failed(const ComponentMap::Part& part) const;
  /// Schedules set_failed(part, failed) at `at` on the part's simulator,
  /// keyed under its cluster's entity.
  void schedule_failure(util::SimTime at, const ComponentMap::Part& part,
                        bool failed);

  /// Every cluster back to the healthy steady state (see
  /// DrsSystem::all_pristine); gateways carry no per-run state to check.
  bool all_pristine() const;
  std::uint64_t total_probes_sent() const;

  /// Fleet-wide metric snapshot: per-cluster daemon aggregates
  /// ("cluster.<c>.probes_sent", ...), per-gateway echo counters, the relay
  /// hub's counters, and the "fleet.flight_slots" gauge (the clusters'
  /// backplanes' delivery rings, summed).
  void collect_metrics(obs::MetricRegistry& registry,
                       const net::Backplane::Counters& relay) const;

 private:
  FleetConfig config_;
  ComponentMap components_;
  Placement place_;
  std::vector<std::unique_ptr<net::ClusterNetwork>> clusters_;
  std::vector<std::unique_ptr<core::DrsSystem>> systems_;
  std::vector<std::unique_ptr<net::Host>> gateways_;
  std::vector<std::unique_ptr<proto::IcmpService>> gateway_icmp_;
  std::vector<std::unique_ptr<sim::PeriodicTimer>> gateway_timers_;
};

/// The fleet on one simulator: the single-queue reference the sharded fleet
/// is proven against.
class Fleet {
 public:
  /// Throws std::invalid_argument for a fleet of zero clusters.
  Fleet(sim::Simulator& sim, FleetConfig config);
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::uint16_t cluster_count() const { return config().clusters; }
  std::uint16_t nodes_per_cluster() const {
    return config().nodes_per_cluster;
  }
  const FleetConfig& config() const { return members_.config(); }

  net::ClusterNetwork& cluster(net::ClusterId c) { return members_.cluster(c); }
  core::DrsSystem& system(net::ClusterId c) { return members_.system(c); }
  const core::DrsSystem& system(net::ClusterId c) const {
    return members_.system(c);
  }
  net::Host& gateway(net::ClusterId c) { return members_.gateway(c); }
  proto::IcmpService& gateway_icmp(net::ClusterId c) {
    return members_.gateway_icmp(c);
  }
  net::Backplane& relay_backplane() { return *relay_; }

  /// Starts every cluster's DRS system and the gateway echo mesh.
  void start() { members_.start(false); }
  void stop() { members_.stop(); }

  /// Advances the shared simulation (all clusters progress together).
  void settle(util::Duration warmup) { sim_.run_for(warmup); }

  /// Schedules a component fail/restore at absolute time `at`, keyed under
  /// the entity that owns the component: its cluster for cluster components
  /// and gateway NICs, the relay hub for the relay backplane. Throws
  /// std::out_of_range for an index past component_count().
  void schedule_component_failure(util::SimTime at, net::ComponentIndex index,
                                  bool failed);

  bool all_pristine() const { return members_.all_pristine(); }

  /// End-to-end inter-cluster check: routed echo from cluster `a`'s gateway
  /// to cluster `b`'s relay address, advancing simulated time until it
  /// concludes. A measurement, not a pure query.
  bool test_relay_reachability(net::ClusterId a, net::ClusterId b,
                               util::Duration timeout = util::Duration::millis(250));

  // -- flat component space (ComponentMap) -----------------------------------
  net::ComponentIndex component_count() const {
    return members_.components().count();
  }
  /// Both throw std::out_of_range for an index past component_count().
  void set_component_failed(net::ComponentIndex index, bool failed);
  bool component_failed(net::ComponentIndex index) const;

  net::ComponentIndex cluster_component(net::ClusterId c,
                                        net::ComponentIndex local) const {
    return members_.components().cluster_component(c, local);
  }
  net::ComponentIndex gateway_component(net::ClusterId c) const {
    return members_.components().gateway(c);
  }
  net::ComponentIndex relay_backplane_component() const {
    return members_.components().relay();
  }

  /// FleetMembers::collect_metrics for the relay Backplane, plus the
  /// simulator's sim.*/arena.* allocator-pressure metrics (the names
  /// DrsSystem reports, so the zero-allocation audit reads either topology).
  void collect_metrics(obs::MetricRegistry& registry) const;

  std::uint64_t total_probes_sent() const {
    return members_.total_probes_sent();
  }

 private:
  sim::Simulator& sim_;
  std::unique_ptr<net::Backplane> relay_;
  FleetMembers members_;
};

}  // namespace drs::cluster
