#include "core/link_state.hpp"

#include "obs/macros.hpp"

namespace drs::core {

LinkStateTable::LinkStateTable(net::NodeId self, std::uint16_t node_count,
                               LinkPolicy policy)
    : self_(self),
      policy_(policy),
      entries_(static_cast<std::size_t>(node_count) * net::kNetworksPerHost) {
  if (policy_.failures_to_down == 0) policy_.failures_to_down = 1;
  if (policy_.successes_to_up == 0) policy_.successes_to_up = 1;
  if (policy_.flap_threshold > 0) {
    suppressed_until_.resize(entries_.size());
    recent_downs_.resize(entries_.size());
  }
}

bool LinkStateTable::record_probe(net::NodeId peer, net::NetworkId network,
                                  bool success, util::SimTime now) {
  Entry& e = entry(peer, network);
  const LinkState before = e.state;
  if (success) {
    e.consecutive_failures = 0;
    ++e.consecutive_successes;
    // Flap damping: while suppressed, successes are recorded but the link
    // is not allowed back UP — it must prove itself after the hold.
    const bool held = suppressed(peer, network, now);
    if (!held) {
      if (e.state == LinkState::kSuspect) {
        e.state = LinkState::kUp;
      } else if (e.state == LinkState::kDown &&
                 e.consecutive_successes >= policy_.successes_to_up) {
        e.state = LinkState::kUp;
      }
    }
  } else {
    e.consecutive_successes = 0;
    ++e.consecutive_failures;
    if (e.consecutive_failures >= policy_.failures_to_down) {
      if (e.state != LinkState::kDown && policy_.flap_threshold > 0) {
        // A fresh DOWN verdict: account it against the flap budget.
        const std::size_t index = link(peer, network);
        std::deque<util::SimTime>& downs = recent_downs_[index];
        // drs-lint: hotpath-purity-ok(runs only on a DOWN transition; deque stays bounded by the flap window)
        downs.push_back(now);
        while (!downs.empty() && now - downs.front() > policy_.flap_window) {
          downs.pop_front();
        }
        if (downs.size() > policy_.flap_threshold) {
          suppressed_until_[index] = now + policy_.flap_hold;
          ++suppressions_;
        }
      }
      e.state = LinkState::kDown;
    } else if (e.state == LinkState::kUp) {
      e.state = LinkState::kSuspect;
    }
  }
  if (e.state != before) {
    DRS_TRACE_EVENT(tracer_, .at_ns = now.ns(),
                    .kind = obs::TraceEventKind::kLinkChange, .node = self_,
                    .peer = peer, .network = network,
                    .a = static_cast<std::int64_t>(before),
                    .b = static_cast<std::int64_t>(e.state));
    const std::size_t index = link(peer, network);
    if (e.state == LinkState::kDown) {
      // drs-lint: hotpath-purity-ok(call site: cold, start_downtime runs once per table, at its first DOWN verdict)
      if (down_since_.empty()) start_downtime();
      down_since_[index] = now;
    } else if (before == LinkState::kDown) {
      // drs-lint: hotpath-purity-ok(call site: IntHistogram::add bumps fixed buckets; by name it would reach util::Table::add)
      downtime_ms_->add((now - down_since_[index]).ns() / 1'000'000);
    }
  }
  // Verdict change = crossing the UP/DOWN boundary in either direction.
  const bool was_down = before == LinkState::kDown;
  const bool is_down = e.state == LinkState::kDown;
  return was_down != is_down;
}

void LinkStateTable::start_downtime() {
  down_since_.resize(entries_.size());
  downtime_ms_.emplace(std::vector<std::int64_t>(kDowntimeEdgesMs.begin(),
                                                 kDowntimeEdgesMs.end()));
}

std::size_t LinkStateTable::down_count() const {
  std::size_t count = 0;
  for (const auto& e : entries_) {
    if (e.state == LinkState::kDown) ++count;
  }
  return count;
}

bool LinkStateTable::suppressed(net::NodeId peer, net::NetworkId network,
                                util::SimTime now) const {
  return policy_.flap_threshold > 0 &&
         now < suppressed_until_[link(peer, network)];
}

}  // namespace drs::core
