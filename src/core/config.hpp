// DRS daemon configuration.
//
// Defaults follow the paper's description of the deployed system: frequent
// ICMP link checks (the proactive part), failover decided after a small
// number of consecutive losses, and relay discovery enabled. Every knob that
// a benchmark sweeps or an ablation toggles lives here.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/addr.hpp"
#include "util/time.hpp"

namespace drs::core {

struct DrsConfig {
  /// Period of one full monitoring cycle (phase 1 probes every monitored
  /// peer on every network once per cycle).
  util::Duration probe_interval = util::Duration::millis(100);

  /// Per-probe echo timeout. Must be < probe_interval for a stable cycle.
  /// With adaptive_timeout this is the upper clamp.
  util::Duration probe_timeout = util::Duration::millis(40);

  /// Derive the probe timeout from measured RTTs (srtt + 4*rttvar per
  /// network, Jacobson-style), clamped to [min_probe_timeout,
  /// probe_timeout]. On a quiet LAN where echoes return in tens of
  /// microseconds this cuts detection latency by an order of magnitude; the
  /// clamp floor keeps jitter from causing false losses.
  bool adaptive_timeout = false;
  util::Duration min_probe_timeout = util::Duration::millis(2);

  /// Consecutive probe losses before a link is declared DOWN (1 = first
  /// loss). Losses in between leave it SUSPECT.
  std::uint32_t failures_to_down = 2;

  /// Consecutive successes before a DOWN link is declared UP again
  /// (hysteresis against flapping links).
  std::uint32_t successes_to_up = 1;

  /// Spread each cycle's probes uniformly over the cycle instead of bursting
  /// them at the tick. Smooths the Fig. 1 bandwidth footprint.
  bool spread_probes = true;

  /// ICMP echo payload bytes beyond the 8-byte header (0 = minimum frame).
  std::uint32_t probe_data_bytes = 0;

  /// Enable relay discovery when both direct links to a peer are down.
  /// Disabling it is the "redundant link only" ablation.
  bool allow_relay = true;

  /// How long to collect ROUTE_OFFERs before picking a relay.
  util::Duration discover_timeout = util::Duration::millis(50);

  /// Warm-standby relays: when a peer is down to one direct link, discover a
  /// relay candidate in advance. If the second link then dies, the detour is
  /// installed immediately instead of paying discover_timeout first — the
  /// "proactive" idea applied to the repair path itself.
  bool warm_standby = false;

  /// Relay-installed routes expire unless refreshed (the requester re-sends
  /// ROUTE_SET every cycle while the detour is in use), so a crashed
  /// requester cannot leave stale forwarding state behind.
  util::Duration relay_route_lifetime = util::Duration::seconds(2);

  /// Flap damping: when a link's UP->DOWN verdict flips more than
  /// `flap_threshold` times within `flap_window`, further UP verdicts are
  /// suppressed for `flap_hold` — a persistently flapping link is worse than
  /// a dead one because every flap re-routes the cluster. 0 disables.
  std::uint32_t flap_threshold = 0;
  util::Duration flap_window = util::Duration::seconds(10);
  util::Duration flap_hold = util::Duration::seconds(5);

  /// The peers this daemon monitors ("each DRS demon is configured to
  /// monitor hosts on the networks"). Unset = every other cluster node, the
  /// deployed configuration. A node never offers to relay for a peer it
  /// does not monitor — it has no link-state evidence about it.
  std::optional<std::vector<net::NodeId>> monitored_peers;

  /// Cross-knob consistency check. Returns a descriptive error when the
  /// configuration cannot run a stable monitoring loop (e.g. probe_timeout >=
  /// probe_interval, min_probe_timeout > probe_timeout, a zero detection
  /// threshold), nullopt when the configuration is usable. DrsSystem and the
  /// chaos runner reject invalid configurations up front instead of silently
  /// misbehaving.
  [[nodiscard]] std::optional<std::string> validate() const;
};

/// Upper bound on the time this configuration needs to detect a topology
/// change and have repaired routes in force. Detection takes failures_to_down
/// consecutive losses, plus one cycle because the change can land just after
/// a cycle's probe and one more for probe spreading; then the final probe's
/// timeout, then up to two relay-discovery rounds (the first round can come
/// up empty and be retried next cycle), plus a small in-flight margin. The
/// chaos invariant checkers treat reachability gaps longer than this as
/// protocol violations.
[[nodiscard]] inline util::Duration worst_case_repair_bound(const DrsConfig& c) {
  return c.probe_interval * static_cast<std::int64_t>(c.failures_to_down + 2) +
         c.probe_timeout * 2 + c.discover_timeout * 2 +
         util::Duration::millis(50);
}

}  // namespace drs::core
