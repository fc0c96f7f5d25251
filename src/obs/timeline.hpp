// Failover-timeline reconstruction: folding a trace into per-failure stories.
//
// Given a failure-injection time and the moment reachability was observed
// restored, reconstruct_failover scans the trace for the landmarks in
// between: the first daemon-level detection (a lost monitoring probe), the
// first DOWN verdict, and the first detour action. The chaos campaign feeds
// its failover_latency invariant from these reconstructed timelines — the
// latency the protocol is judged on starts at *detection*, not at schedule
// injection (a daemon cannot react to a failure before its probes can have
// noticed it), while the violation deadline stays anchored at injection
// because worst_case_repair_bound already budgets the detection window.
//
// audit_detours is the trace-level no-orphan-detour property: per (node,
// peer), install/teardown events must strictly alternate, every install must
// be justified by a preceding DOWN verdict, and a trace that ends healthy
// must end with every episode closed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "obs/tracer.hpp"

namespace drs::obs {

struct FailoverTimeline {
  std::int64_t failure_at_ns = 0;    // caller-supplied injection time
  std::int64_t detected_at_ns = -1;  // first kProbeLost at/after the failure
  std::int64_t link_down_at_ns = -1; // first DOWN verdict at/after the failure
  std::int64_t detour_at_ns = -1;    // first detour install/switch
  std::int64_t recovered_at_ns = -1; // caller-supplied restoration time

  bool detected() const { return detected_at_ns >= 0; }
  bool rerouted() const { return detour_at_ns >= 0; }

  /// Injection -> first missed monitoring probe; 0 when never detected.
  std::int64_t detection_latency_ns() const {
    return detected() ? detected_at_ns - failure_at_ns : 0;
  }
  /// First detection -> restored reachability: the corrected failover
  /// latency. Falls back to injection-based when nothing was detected.
  std::int64_t repair_latency_ns() const {
    const std::int64_t start = detected() ? detected_at_ns : failure_at_ns;
    return recovered_at_ns >= 0 ? recovered_at_ns - start : -1;
  }
};

/// Folds a tracer's retained events (chronological, scanned in place) into
/// the timeline of one failure episode.
FailoverTimeline reconstruct_failover(const Tracer& tracer,
                                      std::int64_t failure_at_ns,
                                      std::int64_t recovered_at_ns);

/// Checks the detour install/teardown discipline over a whole trace and
/// returns one human-readable problem per violation (empty = clean):
///   - detour_install while an episode is already open, or without a DOWN
///     verdict for that (node, peer) since the last teardown;
///   - detour_switch / detour_teardown with no open episode;
///   - `expect_closed`: episodes still open at the end of the trace.
std::vector<std::string> audit_detours(const std::vector<TraceEvent>& events,
                                       bool expect_closed = true);

}  // namespace drs::obs
