// Failure-scenario scripting: a small text DSL so experiments can be stored
// in files and replayed exactly.
//
//   # comments and blank lines are ignored
//   @1.5s   fail    nic 3 0          # node 3's network-A NIC
//   @2s     fail    backplane 1
//   @4s     restore nic 3 0
//   @5s     flap    nic 2 1 period=200ms count=6   # 6 fail/restore pairs
//
// Times are relative offsets (suffix ns/us/ms/s); actions are scheduled at
// `base + offset` when applied to an injector. `flap` expands into
// alternating fail/restore pairs starting with fail. A script expands to at
// most kMaxScriptActions actions.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "net/failure.hpp"

namespace drs::net {

/// The most actions one script may expand to, flaps included: a million
/// (16 MB of actions), far beyond any scenario the repository runs, and far
/// below what a mistyped `flap ... count=` would otherwise allocate.
inline constexpr std::size_t kMaxScriptActions = 1'000'000;

struct ScriptAction {
  util::Duration at;  // offset from the script's start
  ComponentRef component;
  bool fail = true;
};

struct ScriptParseResult {
  std::vector<ScriptAction> actions;  // sorted by offset
  std::string error;                  // empty on success, else "line N: ..."
  bool ok() const { return error.empty(); }
};

/// Parses a scenario script. Component references are validated against
/// `node_count` (so a script cannot name node 99 of an 8-node cluster).
ScriptParseResult parse_failure_script(const std::string& text,
                                       std::uint16_t node_count);

/// Schedules every action at `base + action.at` on the injector's network.
void schedule_script(FailureInjector& injector, const std::vector<ScriptAction>& actions,
                     util::SimTime base);

}  // namespace drs::net
