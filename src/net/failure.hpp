// Scheduled failure injection.
//
// Scenarios are scripts of (time, component, fail/restore) actions applied to
// a ClusterNetwork through the simulator; the injector counts them and hands
// each to an optional observer. This is the mechanism behind every
// survivability experiment and the proactive-vs-reactive comparisons.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "net/network.hpp"

namespace drs::net {

struct FailureAction {
  util::SimTime at;
  ComponentIndex component = 0;
  bool fail = true;  // false = restore
};

class FailureInjector {
 public:
  explicit FailureInjector(ClusterNetwork& network) : network_(network) {}

  /// Schedules one action; may be called before or during the run.
  void schedule(FailureAction action);

  /// Convenience: fail at `at`, restore at `at + outage` (no restore if
  /// outage is zero).
  void schedule_outage(util::SimTime at, ComponentIndex component,
                       util::Duration outage = util::Duration::zero());

  /// Applies `fail`/restore immediately (bypasses the event queue).
  void apply_now(ComponentIndex component, bool fail);

  /// Schedules every action of a pre-generated script (the chaos campaign's
  /// replayable schedules arrive this way). Actions may be in any order.
  void schedule_script(const std::vector<FailureAction>& actions);

  /// Actions applied so far, scheduled or immediate.
  std::uint64_t applied() const { return applied_; }
  std::size_t currently_failed() const;
  ClusterNetwork& network() { return network_; }

  /// Observation hook: called after every applied action (scheduled or
  /// immediate) with that action, stamped with the instant it took effect.
  /// Precomputed routing policies learn of failures through it.
  using Observer = std::function<void(const FailureAction&)>;
  void set_observer(Observer observer) { observer_ = std::move(observer); }

 private:
  ClusterNetwork& network_;
  std::uint64_t applied_ = 0;
  Observer observer_;
};

}  // namespace drs::net
