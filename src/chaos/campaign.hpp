// One chaos campaign: a full DRS cluster simulation driven by a generated
// failure/restore schedule, with the runtime invariant checkers interleaved.
//
// A campaign is hermetic — its own simulator, network and daemons — and a
// pure function of (seed, campaign index, config), which is what lets the
// runner fan thousands of campaigns across threads with bit-identical
// results (same block-determinism contract as drs::mc).
#pragma once

#include <cstdint>
#include <vector>

#include "chaos/invariants.hpp"
#include "chaos/schedule.hpp"
#include "core/config.hpp"
#include "obs/event.hpp"
#include "obs/timeline.hpp"
#include "util/arena.hpp"

namespace drs::chaos {

/// Probe/discovery timing used by campaigns by default: the integration
/// tests' fast shape, so one ~10 s campaign simulates in milliseconds.
core::DrsConfig fast_campaign_drs_config();

struct CampaignConfig {
  ScheduleConfig schedule;
  core::DrsConfig drs = fast_campaign_drs_config();
  /// Sabotage switch: raise failures_to_down so high the daemons never
  /// declare a link DOWN and never repair anything. A correct checker suite
  /// MUST report violations under this configuration — it is how the test
  /// suite proves the checkers can fail.
  bool cripple_detection = false;
  /// Convergence window after the final restore-all before detour-cleanup
  /// is asserted (the integration churn tests converge well within 3 s).
  util::Duration settle = util::Duration::seconds(3);
  /// Timeout for a single reachability echo during checks.
  util::Duration echo_timeout = util::Duration::millis(25);
  /// Clock step between reachability polls when measuring failover latency.
  util::Duration latency_probe_step = util::Duration::millis(10);
  /// Ring capacity of the per-campaign tracer. A tracer is always attached:
  /// failover latency is measured from the trace's first post-injection
  /// probe loss, not from schedule-injection time.
  std::size_t trace_capacity = std::size_t{1} << 15;
  /// Retain the full event trace in CampaignResult (golden-trace tests and
  /// the bench's Chrome-trace export); off by default to keep fan-outs lean.
  bool capture_trace = false;
};

struct CampaignResult {
  std::uint64_t campaign = 0;
  std::uint64_t actions_applied = 0;
  /// Individual invariant evaluations performed (pairs echoed, walks, ...).
  std::uint64_t checks = 0;
  std::vector<Violation> violations;
  /// Failover latency per disruptive failure, ms: from the daemons' first
  /// missed-probe detection (trace kProbeLost) to restored reachability.
  std::vector<double> failover_latencies_ms;
  /// Injection-to-detection delay per disruptive failure, ms (0 when the
  /// trace shows no detection — then the latency above starts at injection).
  std::vector<double> detection_delays_ms;
  /// Reconstructed per-failure timelines, same order as the latencies.
  std::vector<obs::FailoverTimeline> timelines;
  /// The retained event trace (capture_trace only), oldest first.
  std::vector<obs::TraceEvent> trace;
  /// Events the tracer's ring dropped (oldest first) during the run. Nonzero
  /// means `trace` and the timelines above saw a truncated story.
  std::uint64_t trace_evicted = 0;
  /// Simulator events executed and simulated span — cost accounting.
  std::uint64_t sim_events = 0;
  double sim_seconds = 0.0;
};

/// Runs campaign `campaign` of the (seed, config) family to completion.
/// `arena` (optional) backs the simulation's pooled allocations; the chaos
/// runner passes a per-worker arena and reset()s it between campaigns so a
/// warmed-up batch reuses the same chunks instead of touching the heap.
CampaignResult run_campaign(std::uint64_t seed, std::uint64_t campaign,
                            const CampaignConfig& config,
                            util::Arena* arena = nullptr);

}  // namespace drs::chaos
