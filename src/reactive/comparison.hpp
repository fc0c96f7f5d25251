// Policy comparison harness.
//
// Runs one failure scenario under a named routing policy (see
// policy/registry.hpp) and measures what an application would see: a probe
// stream between an observer pair records the outage from failure injection
// to first post-failure success. This is the machinery behind
// bench_proactive_vs_reactive, the policy shootout and the paper's central
// qualitative claim ("fixing network problems before they effect
// application communication").
//
// test_policy_differential pins the registry path against the results of the
// pre-registry harness byte-identically.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "policy/registry.hpp"
#include "util/time.hpp"

namespace drs::reactive {

struct ScenarioConfig {
  std::uint16_t node_count = 12;
  /// Registered policy name (policy::policy_names() lists them).
  std::string policy = "drs";
  /// Per-policy parameter structs; the chosen policy reads only its own.
  policy::PolicyParams params;
  net::Backplane::Config backplane;

  /// Observer probe stream (application stand-in).
  util::Duration app_probe_interval = util::Duration::millis(10);
  util::Duration app_probe_timeout = util::Duration::millis(50);
  net::NodeId observer_src = 0;
  net::NodeId observer_dst = 1;

  /// Let the protocol converge before injecting anything.
  util::Duration warmup = util::Duration::seconds(2);
  /// How long to keep measuring after the failure.
  util::Duration measure = util::Duration::seconds(10);

  /// Opt-in detection sampling: when true, the harness polls the cluster's
  /// routing-table versions every `detection_sample` after injection and
  /// reports the first change as ScenarioResult::detection. Off by default
  /// because the sampler adds events to the stream (the differential pins
  /// require an untouched schedule).
  bool track_detection = false;
  util::Duration detection_sample = util::Duration::millis(1);
};

struct ScenarioResult {
  bool healthy_before = false;  // the pair communicated during warmup
  bool recovered = false;       // a probe succeeded after the failure
  /// Injection -> first successful probe completion. Infinite if never.
  util::Duration app_outage = util::Duration::max();
  /// Injection -> last probe loss before sustained success (0 when no probe
  /// was ever lost, i.e. failover beat the application entirely).
  util::Duration last_loss_after = util::Duration::zero();
  std::uint64_t probes_lost = 0;
  std::uint64_t probes_total = 0;
  /// Policy overhead observed during the run, via the uniform
  /// RoutingPolicy::control_messages() accounting hook (0 for static).
  std::uint64_t protocol_messages = 0;

  /// Injection -> first routing-table change anywhere in the cluster,
  /// quantized to ScenarioConfig::detection_sample. Unset unless
  /// track_detection was on and a change was observed.
  std::optional<util::Duration> detection;
  /// Data-plane hop count of the observer path before injection and at the
  /// end of the run (0 = no route); their ratio is the detour stretch.
  std::uint32_t path_hops_before = 0;
  std::uint32_t path_hops_after = 0;
};

/// Injects `failed_components` simultaneously after warmup and measures the
/// observer pair's outage under the configured policy. Throws
/// std::invalid_argument for unknown policy names or invalid parameters.
[[nodiscard]] ScenarioResult run_failure_scenario(
    const ScenarioConfig& config,
    const std::vector<net::ComponentIndex>& failed_components);

}  // namespace drs::reactive
