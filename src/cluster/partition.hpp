// Fleet sharding: cluster-island partitioning over a ShardedEngine.
//
// The fleet topology (fleet.hpp) is S-shardable almost by construction: the
// k clusters are disjoint L2 islands whose only coupling is the shared relay
// hub. A ShardedFleet assigns each cluster (its networks, its DrsSystem, its
// gateway host) wholly to one shard, so every intra-cluster event is
// shard-local; only relay traffic crosses shards, and the relay backplane's
// propagation delay (5 us by default) is the conservative lookahead.
//
// Both fleets key same-time events by scheduling entity (sim::EntityScope):
// each cluster is one entity, built and injected under it, and the relay hub
// is another, ordered before every cluster. Every cluster's counter lives on
// the one shard that owns the cluster, so shards compute the same event keys
// as Fleet's single queue.
//
// The clusters themselves are built, started, failed and reported by
// FleetMembers (fleet.hpp), the same routine Fleet uses: ShardedFleet only
// tells it where each cluster lives — its shard's simulator and relay stub —
// and brackets every setup step in a setup segment of that shard.
//
// The relay hub itself is SHARED state — serialization contention, the
// backlog bound, the loss RNG stream, and failure epochs all couple every
// gateway. Rather than lock it, each shard gets a stub Backplane whose
// boundary hook captures offered frames (with the key of the event that
// offered them), and a single relay-hub ORACLE on the coordinator offers
// them, globally ordered, to its own net::Backplane::Medium — the hub model
// Fleet's relay Backplane runs — at every window barrier. The oracle owns the
// hub entity's counter: failure transitions and
// deliveries draw their keys from it in replay order, exactly as Fleet's hub
// backplane claims them. Deliveries come back as cross-shard foreign events
// at the (time, key) coordinates Fleet's delivery ring pops them, so traces
// and counters are byte-identical to the single-threaded Fleet at any shard
// count. docs/SHARDING.md walks through the argument.
//
// Contract differences vs. Fleet (both enforced here):
//   - the relay must be a kHub with zero jitter (the oracle replays one
//     FIFO stream, which only that hub's arrivals follow);
//   - failure injections are scheduled up front via
//     schedule_component_failure(), not by external mid-run schedule_at
//     calls (the oracle must know every relay transition before it replays).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cluster/fleet.hpp"
#include "sim/sharded.hpp"

namespace drs::cluster {

/// Contiguous [begin, end) cluster ranges, one per shard, sizes differing by
/// at most one (remainder clusters go to the lowest shards). Contiguity keeps
/// the canonical 27-cluster fleet's shard map human-readable and makes the
/// legacy construction order (cluster-major) trivially reproducible.
std::vector<std::pair<std::uint16_t, std::uint16_t>> partition_clusters(
    std::uint16_t clusters, std::uint32_t shards);

struct ShardedFleetConfig {
  FleetConfig fleet;
  /// Worker threads; clamped to [1, fleet.clusters].
  std::uint32_t shards = 4;
  /// Per-shard tracer ring capacity; 0 skips tracer attachment (the fair
  /// configuration for benchmarking against an untraced legacy Fleet).
  std::size_t trace_capacity = obs::Tracer::kDefaultCapacity;
  /// Cap on adaptive window length (sim::ShardedEngine::Options), 0 =
  /// unlimited; the fleet refines the engine's earliest-output-time bound
  /// with the relay oracle's state. The gateway probe cadence
  /// (default 100 ms) bounds windows naturally; set this when shrinking
  /// trace_capacity below a cadence's worth of events.
  std::int64_t max_window_ns = 0;
  /// Record per-window occupancy spans (engine().window_spans()) for the
  /// Chrome-trace export.
  bool record_window_spans = false;
};

/// The fleet topology sharded across worker threads. Byte-identical traces
/// and (semantic) counters vs. Fleet; see the file comment.
class ShardedFleet {
 public:
  /// Throws std::invalid_argument for zero clusters, or for a relay that is
  /// not a zero-jitter kHub.
  explicit ShardedFleet(ShardedFleetConfig config);
  ~ShardedFleet();
  ShardedFleet(const ShardedFleet&) = delete;
  ShardedFleet& operator=(const ShardedFleet&) = delete;

  std::uint16_t cluster_count() const { return config_.fleet.clusters; }
  std::uint16_t nodes_per_cluster() const {
    return config_.fleet.nodes_per_cluster;
  }
  const ShardedFleetConfig& config() const { return config_; }

  sim::ShardedEngine& engine() { return engine_; }
  const sim::ShardedEngine& engine() const { return engine_; }
  std::uint32_t shard_of_cluster(net::ClusterId c) const;
  net::ClusterNetwork& cluster(net::ClusterId c) { return members_.cluster(c); }
  core::DrsSystem& system(net::ClusterId c) { return members_.system(c); }
  net::Host& gateway(net::ClusterId c) { return members_.gateway(c); }
  proto::IcmpService& gateway_icmp(net::ClusterId c) {
    return members_.gateway_icmp(c);
  }

  /// Starts every cluster's DRS system and the gateway echo mesh (still in
  /// the serialized setup phase).
  void start();

  /// Schedules a component fail/restore at absolute time `at` under the
  /// entity that owns the component, like Fleet::schedule_component_failure.
  /// Must be called after start() and before the first run_until(), or it
  /// throws std::logic_error; an index past component_count() throws
  /// std::out_of_range.
  void schedule_component_failure(util::SimTime at, net::ComponentIndex index,
                                  bool failed);

  /// Executes every event with time <= deadline (the sharded equivalent of
  /// Simulator::run_until over the whole fleet).
  void run_until(util::SimTime deadline);

  /// Merged global trace, byte-identical to Fleet's tracer stream (modulo
  /// kQueueHighWater, which reports per-queue occupancy).
  const std::vector<obs::TraceEvent>& merged_trace() const {
    return engine_.merged_trace();
  }

  bool all_pristine() const { return members_.all_pristine(); }
  std::uint64_t total_probes_sent() const {
    return members_.total_probes_sent();
  }

  // -- flat component space (Fleet's ComponentMap) ---------------------------
  net::ComponentIndex component_count() const {
    return members_.components().count();
  }
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

  /// Same semantic keys as Fleet::collect_metrics (cluster.*, gateway.*,
  /// relay.*, fleet.*), with sim.*/arena.* summed across shards and
  /// additional shard.<i>.* / engine.* diagnostics (window_events,
  /// barrier_wait_ns, windows_coalesced). The differential corpus compares
  /// everything except the sim./arena./shard./engine. prefixes, whose values
  /// are per-queue or wall-clock implementation detail.
  void collect_metrics(obs::MetricRegistry& registry) const;

 private:
  struct RelayOracle;

  static sim::ShardedEngine::Options engine_options(
      const ShardedFleetConfig& config);
  std::vector<std::unique_ptr<net::Backplane>> build_relay_stubs();

  ShardedFleetConfig config_;
  sim::ShardedEngine engine_;
  std::vector<std::pair<std::uint16_t, std::uint16_t>> ranges_;
  std::unique_ptr<RelayOracle> oracle_;
  /// Per-shard relay stubs: attach points for the local gateways' NICs; every
  /// offered frame is diverted to the oracle by the boundary hook.
  std::vector<std::unique_ptr<net::Backplane>> relay_stubs_;
  /// Declared last: the clusters stop and go before the shard simulators.
  FleetMembers members_;
  bool started_ = false;
};

}  // namespace drs::cluster
