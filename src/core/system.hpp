// DrsSystem: the package a downstream user instantiates — one DRS daemon and
// one ICMP service per cluster host, started together. This is the public
// entry point the examples and benches build on.
#pragma once

#include <memory>
#include <vector>

#include "core/daemon.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace drs::core {

class DrsSystem {
 public:
  DrsSystem(net::ClusterNetwork& network, DrsConfig config);

  void start();
  void stop();

  net::ClusterNetwork& network() { return network_; }
  DrsDaemon& daemon(net::NodeId node) { return *daemons_.at(node); }
  const DrsDaemon& daemon(net::NodeId node) const { return *daemons_.at(node); }
  proto::IcmpService& icmp(net::NodeId node) { return *icmp_.at(node); }

  std::uint16_t node_count() const { return network_.node_count(); }

  /// Aggregates across all daemons.
  std::uint64_t total_probes_sent() const;
  std::uint64_t total_control_messages() const;
  std::uint64_t total_route_installs() const;

  /// True when every daemon is back to the healthy steady state: all peers in
  /// direct mode, no DRS routes installed, no relay leases, no links DOWN.
  /// This is the condition a fully-restored cluster must converge to — the
  /// chaos runner's detour-cleanup invariant.
  bool all_pristine() const;

  /// End-to-end check: sends a *routed* echo from `a` to `b`'s primary
  /// address and advances the simulation until it concludes (at most
  /// `timeout`). Returns whether a reply arrived. Note this moves simulated
  /// time forward — it is a measurement, not a pure query.
  bool test_reachability(net::NodeId a, net::NodeId b,
                         util::Duration timeout = util::Duration::millis(250));

  /// Runs the simulation for `warmup` so every daemon completes at least one
  /// full monitoring cycle and converges on the current failure pattern.
  void settle(util::Duration warmup);

  /// Snapshots every daemon/backplane/ICMP counter into `registry` under the
  /// obs naming convention ("daemon.<i>.probes_sent", "backplane.<k>.frames",
  /// ...), plus the "system.link_downtime_ms" histogram: every daemon's
  /// closed DOWN episodes. Pure read; integer-only by construction.
  void collect_metrics(obs::MetricRegistry& registry) const;

 private:
  net::ClusterNetwork& network_;
  /// Shared across all daemons; declared before them so it outlives their
  /// destruction (they deregister nothing — stop() cancels it).
  ProbeScheduler scheduler_;
  std::vector<std::unique_ptr<proto::IcmpService>> icmp_;
  std::vector<std::unique_ptr<DrsDaemon>> daemons_;
};

/// Compile-out wrapper around DrsSystem::collect_metrics: in a translation
/// unit built with -DDRS_OBS_DISABLED this is a no-op and `registry` stays
/// empty, matching DRS_TRACE_EVENT's behavior (see obs/macros.hpp).
inline void snapshot_metrics(const DrsSystem& system,
                             obs::MetricRegistry& registry) {
#ifndef DRS_OBS_DISABLED
  system.collect_metrics(registry);
#else
  (void)system;
  (void)registry;
#endif
}

}  // namespace drs::core
