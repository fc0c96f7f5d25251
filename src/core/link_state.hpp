// Per-daemon link state: what this node believes about its own link to each
// (peer, network) pair, driven purely by probe outcomes.
//
// State machine:  UP --loss--> SUSPECT --(failures_to_down-1 more)--> DOWN
//                 DOWN --(successes_to_up)--> UP, SUSPECT --success--> UP
//
// Optional flap damping: a link whose UP->DOWN verdict flips too often
// within a window has its recovery suppressed for a hold period, so a
// marginal transceiver cannot make the whole cluster re-route every second.
//
// Layout: one 12-byte hot entry per link, read by every probe outcome. The
// damping state lives in side lanes that are only sized while damping is on
// (flap_threshold > 0), so the default configuration pays nothing for it.
// Transitions are not logged (each is a kLinkChange trace event); DOWN
// episodes are folded into a histogram as they close.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "net/addr.hpp"
#include "obs/metrics.hpp"
#include "util/time.hpp"

namespace drs::obs {
class Tracer;
}

namespace drs::core {

enum class LinkState : std::uint8_t { kUp, kSuspect, kDown };

/// Upper bucket edges, in whole milliseconds, of every table's DOWN-episode
/// histogram; DrsSystem exports the tables' sum as "system.link_downtime_ms".
inline constexpr std::array<std::int64_t, 12> kDowntimeEdgesMs = {
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000};

/// Verdict thresholds and damping parameters for a LinkStateTable.
struct LinkPolicy {
  std::uint32_t failures_to_down = 2;
  std::uint32_t successes_to_up = 1;
  /// Flap damping (0 = off): more than this many DOWN verdicts within
  /// flap_window suppresses recovery for flap_hold.
  std::uint32_t flap_threshold = 0;
  util::Duration flap_window = util::Duration::seconds(10);
  util::Duration flap_hold = util::Duration::seconds(5);
};

class LinkStateTable {
 public:
  LinkStateTable(net::NodeId self, std::uint16_t node_count, LinkPolicy policy);

  /// Records a probe outcome; returns true iff the UP/DOWN verdict changed
  /// (SUSPECT does not count as a verdict change).
  bool record_probe(net::NodeId peer, net::NetworkId network, bool success,
                    util::SimTime now);

  /// Inline: every RouteDiscover any daemon receives consults the table for
  /// both networks, so under a control storm this is a per-frame lookup.
  LinkState state(net::NodeId peer, net::NetworkId network) const {
    return entry(peer, network).state;
  }
  /// Operational for routing decisions: UP or SUSPECT (a link is only acted
  /// on once proven DOWN — the paper's daemon fixes problems, it does not
  /// anticipate them from a single lost echo).
  bool usable(net::NodeId peer, net::NetworkId network) const {
    return state(peer, network) != LinkState::kDown;
  }

  std::size_t down_count() const;
  /// Closed DOWN episodes (verdict to recovery) in whole milliseconds, on
  /// kDowntimeEdgesMs; empty until the table's first DOWN verdict.
  const std::optional<obs::IntHistogram>& downtime_ms() const { return downtime_ms_; }

  /// True while the link's recovery is suppressed by flap damping.
  bool suppressed(net::NodeId peer, net::NetworkId network,
                  util::SimTime now) const;
  /// Total hold periods imposed so far.
  std::uint64_t suppressions() const { return suppressions_; }

  /// Observability: every state-machine transition is emitted as a
  /// kLinkChange trace event. The owning daemon latches its simulator's
  /// tracer here at start(); nullptr (the default) emits nothing.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

 private:
  /// The per-probe state of one link: 12 bytes, no heap.
  struct Entry {
    LinkState state = LinkState::kUp;
    std::uint32_t consecutive_failures = 0;
    std::uint32_t consecutive_successes = 0;
  };
  static std::size_t link(net::NodeId peer, net::NetworkId network) {
    return static_cast<std::size_t>(peer) * net::kNetworksPerHost + network;
  }
  Entry& entry(net::NodeId peer, net::NetworkId network) {
    return entries_[link(peer, network)];
  }
  const Entry& entry(net::NodeId peer, net::NetworkId network) const {
    return entries_[link(peer, network)];
  }
  /// Sizes the episode lane and the histogram; runs once per table.
  void start_downtime();

  net::NodeId self_;
  LinkPolicy policy_;
  std::vector<Entry> entries_;  // [peer * 2 + network]
  // Flap-damping lanes, indexed like entries_; empty unless
  // flap_threshold > 0.
  std::vector<util::SimTime> suppressed_until_;  // zero = not suppressed
  std::vector<std::deque<util::SimTime>> recent_downs_;
  // DOWN episodes, both empty until the first DOWN verdict: each link's
  // open-episode start (indexed like entries_) and the closed episodes.
  std::vector<util::SimTime> down_since_;
  std::optional<obs::IntHistogram> downtime_ms_;
  std::uint64_t suppressions_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace drs::core
