#include "obs/timeline.hpp"

#include <map>

namespace drs::obs {

namespace {

struct TimelineFold {
  FailoverTimeline timeline;

  void feed(const TraceEvent& event) {
    if (event.at_ns < timeline.failure_at_ns) return;
    switch (event.kind) {
      case TraceEventKind::kProbeLost:
        if (timeline.detected_at_ns < 0) timeline.detected_at_ns = event.at_ns;
        break;
      case TraceEventKind::kLinkChange:
        if (timeline.link_down_at_ns < 0 && event.b == kLinkDown) {
          timeline.link_down_at_ns = event.at_ns;
        }
        break;
      case TraceEventKind::kDetourInstall:
      case TraceEventKind::kDetourSwitch:
        if (timeline.detour_at_ns < 0) timeline.detour_at_ns = event.at_ns;
        break;
      default:
        break;
    }
  }
};

}  // namespace

FailoverTimeline reconstruct_failover(const Tracer& tracer,
                                      std::int64_t failure_at_ns,
                                      std::int64_t recovered_at_ns) {
  TimelineFold fold;
  fold.timeline.failure_at_ns = failure_at_ns;
  fold.timeline.recovered_at_ns = recovered_at_ns;
  tracer.for_each([&fold](const TraceEvent& event) { fold.feed(event); });
  return fold.timeline;
}

std::vector<std::string> audit_detours(const std::vector<TraceEvent>& events,
                                       bool expect_closed) {
  struct PairState {
    bool open = false;
    bool down_seen = false;  // DOWN verdict since the last teardown
    std::uint64_t installs = 0;
    std::uint64_t teardowns = 0;
  };
  const auto pair_key = [](const TraceEvent& event) {
    return (static_cast<std::uint32_t>(event.node) << 16) |
           static_cast<std::uint32_t>(event.peer);
  };
  const auto pair_label = [](std::uint32_t key) {
    return "node " + std::to_string(key >> 16) + " peer " +
           std::to_string(key & 0xFFFF);
  };
  std::map<std::uint32_t, PairState> pairs;
  std::vector<std::string> problems;
  const auto complain = [&](const TraceEvent& event, const char* what) {
    problems.push_back(std::string(what) + " for " + pair_label(pair_key(event)) +
                       " at t=" + std::to_string(event.at_ns) + "ns");
  };

  for (const TraceEvent& event : events) {
    switch (event.kind) {
      case TraceEventKind::kLinkChange:
        if (event.b == kLinkDown) pairs[pair_key(event)].down_seen = true;
        break;
      case TraceEventKind::kDetourInstall: {
        PairState& state = pairs[pair_key(event)];
        if (state.open) complain(event, "detour_install while episode open");
        if (!state.down_seen) {
          complain(event, "detour_install without preceding link DOWN");
        }
        state.open = true;
        ++state.installs;
        break;
      }
      case TraceEventKind::kDetourSwitch:
        if (!pairs[pair_key(event)].open) {
          complain(event, "detour_switch with no open episode");
        }
        break;
      case TraceEventKind::kDetourTeardown: {
        PairState& state = pairs[pair_key(event)];
        if (!state.open) complain(event, "detour_teardown with no open episode");
        state.open = false;
        state.down_seen = false;
        ++state.teardowns;
        break;
      }
      default:
        break;
    }
  }
  if (expect_closed) {
    for (const auto& [key, state] : pairs) {
      if (state.open) {
        problems.push_back("episode still open at end of trace for " +
                           pair_label(key));
      }
      if (state.installs != state.teardowns) {
        problems.push_back("install/teardown imbalance (" +
                           std::to_string(state.installs) + " vs " +
                           std::to_string(state.teardowns) + ") for " +
                           pair_label(key));
      }
    }
  }
  return problems;
}

}  // namespace drs::obs
