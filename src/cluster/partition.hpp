// Fleet sharding: cluster-island partitioning over a ShardedEngine.
//
// The fleet topology (fleet.hpp) is S-shardable almost by construction: the
// k clusters are disjoint L2 islands whose only coupling is the shared relay
// hub. A ShardedFleet assigns each cluster (its networks, its DrsSystem, its
// gateway host) wholly to one shard, so every intra-cluster event is
// shard-local; only relay traffic crosses shards, and the relay backplane's
// propagation delay (5 us by default) is the conservative lookahead.
//
// The relay hub itself is SHARED state — serialization contention, the
// backlog bound, the loss RNG stream, and failure epochs all couple every
// gateway. Rather than lock it, each shard gets a stub Backplane whose
// boundary hook captures offered frames (with their lineage keys, see
// sim/sharded.hpp), and a single relay-hub ORACLE on the coordinator replays
// the legacy transmit math over the globally merged offer order at every
// window barrier. Deliveries come back as cross-shard foreign events at the
// exact (time, key) coordinates the legacy delivery stream would have popped
// them, so traces and counters are byte-identical to the single-threaded
// Fleet at any shard count. docs/SHARDING.md walks through the argument.
//
// Contract differences vs. Fleet (both enforced here):
//   - the relay must be a kHub with zero jitter (the delivery stream the
//     oracle replays is the monotone-FIFO path);
//   - failure injections are scheduled up front via
//     schedule_component_failure(), not by external mid-run schedule_at
//     calls (a mid-run push has no legacy rank to reproduce).
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
  /// Property-test hook, see sim::ShardedEngine::Options.
  bool check_windows = false;
  /// Output contract (sim::Ordering): kCertified reproduces legacy traces
  /// byte for byte; kCounterEqual elides the journal and merge, promising
  /// only event counts, metric totals and invariant outcomes. The fleet's
  /// counter-equal lane refuses lossy relays (frame_loss_rate > 0) because
  /// the loss RNG draw order is only certified under the journaled merge.
  sim::Ordering ordering = sim::Ordering::kCertified;
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
  std::uint32_t shard_of_cluster(net::ClusterId c) const {
    return shard_of_[c];
  }
  net::ClusterNetwork& cluster(net::ClusterId c) { return *clusters_.at(c); }
  core::DrsSystem& system(net::ClusterId c) { return *systems_.at(c); }
  net::Host& gateway(net::ClusterId c) { return *gateways_.at(c); }
  proto::IcmpService& gateway_icmp(net::ClusterId c) {
    return *gateway_icmp_.at(c);
  }

  /// Starts every cluster's DRS system and the gateway echo mesh (still in
  /// the serialized setup phase).
  void start();

  /// Schedules a component fail/restore at absolute time `at`. Must be called
  /// after start() and before the first run_until(), in the same order the
  /// legacy run would issue its schedule_at calls — each call consumes one
  /// setup rank, exactly like the legacy injection event's push.
  void schedule_component_failure(util::SimTime at, net::ComponentIndex index,
                                  bool failed);

  /// Executes every event with time <= deadline (the sharded equivalent of
  /// Simulator::run_until over the whole fleet).
  void run_until(util::SimTime deadline);

  /// Merged global trace, byte-identical to the legacy Fleet's tracer stream
  /// (modulo kQueueHighWater, which reports per-queue occupancy).
  const std::vector<obs::TraceEvent>& merged_trace() const {
    return engine_.merged_trace();
  }

  bool all_pristine() const;
  std::uint64_t total_probes_sent() const;

  // -- flat component space (identical numbering to Fleet) -------------------
  net::ComponentIndex component_count() const;
  bool component_failed(net::ComponentIndex index) const;
  net::ComponentIndex cluster_component(net::ClusterId c,
                                        net::ComponentIndex local) const {
    return static_cast<net::ComponentIndex>(c * cluster_stride() + local);
  }
  net::ComponentIndex gateway_component(net::ClusterId c) const {
    return static_cast<net::ComponentIndex>(
        config_.fleet.clusters * cluster_stride() + c);
  }
  net::ComponentIndex relay_backplane_component() const {
    return static_cast<net::ComponentIndex>(
        config_.fleet.clusters * cluster_stride() + config_.fleet.clusters);
  }

  /// Same semantic keys as Fleet::collect_metrics (cluster.*, gateway.*,
  /// relay.*, fleet.*), with sim.*/arena.* aggregated across shards and
  /// additional shard.<i>.* / engine.* diagnostics (window_events,
  /// barrier_wait_ns, windows_coalesced). The differential corpus compares
  /// everything except the sim./arena./shard./engine. prefixes, whose values
  /// are per-queue or wall-clock implementation detail.
  void collect_metrics(obs::MetricRegistry& registry) const;

 private:
  struct RelayOracle;

  std::uint32_t cluster_stride() const {
    return 2u * config_.fleet.nodes_per_cluster + 2u;
  }
  static sim::ShardedEngine::Options engine_options(
      const ShardedFleetConfig& config);

  ShardedFleetConfig config_;
  sim::ShardedEngine engine_;
  std::vector<std::pair<std::uint16_t, std::uint16_t>> ranges_;
  std::vector<std::uint32_t> shard_of_;  // cluster -> shard
  /// Per-shard relay stubs: attach points for the local gateways' NICs; every
  /// offered frame is diverted to the oracle by the boundary hook.
  std::vector<std::unique_ptr<net::Backplane>> relay_stubs_;
  std::vector<std::unique_ptr<net::ClusterNetwork>> clusters_;
  std::vector<std::unique_ptr<core::DrsSystem>> systems_;
  std::vector<std::unique_ptr<net::Host>> gateways_;
  std::vector<std::unique_ptr<proto::IcmpService>> gateway_icmp_;
  std::vector<std::unique_ptr<sim::PeriodicTimer>> gateway_timers_;
  std::unique_ptr<RelayOracle> oracle_;
  bool started_ = false;
};

}  // namespace drs::cluster
