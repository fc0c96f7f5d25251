// Deployment scenarios: the MCI-WorldCom-style availability study.
//
// One study run = one cluster (8–12 servers, dual backplanes), a synthetic
// failure trace (network events injected into the simulation; "other"
// hardware events recorded only), the request/reply workload, and a routing
// policy chosen by registry name. Comparing the same trace under every
// registered policy quantifies what the protocol buys — the paper's
// motivating argument turned into a number.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/availability.hpp"
#include "cluster/failure_trace.hpp"
#include "cluster/workload.hpp"
#include "policy/registry.hpp"

namespace drs::cluster {

struct StudyConfig {
  std::uint16_t node_count = 10;
  /// Registered policy name (policy::policy_names() lists them).
  std::string policy = "drs";
  /// Per-policy parameters; the chosen policy reads only its own struct.
  policy::PolicyParams params;
  TraceConfig trace;
  WorkloadConfig workload;
  /// Warmup before the trace starts playing.
  util::Duration warmup = util::Duration::seconds(2);
};

struct StudyResult {
  std::string policy;
  TraceStats trace_stats;
  RequestReplyWorkload::Stats workload;
  AvailabilityTracker availability;  // one sample per request completion
  /// Via the uniform RoutingPolicy::control_messages() hook.
  std::uint64_t protocol_messages = 0;
};

/// Runs one cluster study; the trace's network events are injected at their
/// trace times (offset by warmup) and repaired after their repair_time.
/// Failure/repair transitions are forwarded to the policy's
/// on_component_failed / on_component_restored hooks. Throws
/// std::invalid_argument for unknown policy names or invalid parameters.
StudyResult run_study(const StudyConfig& config);

/// Runs the same trace under every registered policy (same seed => identical
/// failure schedule), in policy::policy_names() order.
std::vector<StudyResult> run_comparative_study(StudyConfig config);

}  // namespace drs::cluster
