// Struct-of-arrays probe fabric: the per-sweep hot state of one DRS daemon.
//
// A daemon probes every monitored peer on both networks once per cycle
// through a sweep cursor, and a timeout scan expires overdue probes; the
// system's probe scheduler fires both for all its daemons at once, so no
// per-probe or per-daemon sweep event stays pending. Everything
// the sweep reads lives here in parallel flat arrays indexed by
// entry = 2·slot + network: the monitored peer ids in probe order, and per
// entry the in-flight echo's sequence number, send instant and expiry
// deadline.
//
// The table is the *hot* half of the daemon's peer state only: cold repair
// state (relay choices, discovery rounds, warm standbys) lives in the
// daemon's lane indexed by the same slot, and LinkStateTable owns the link
// verdicts.
// Membership is fixed at construction, in ascending peer id order; that is
// the probe order tests/golden/probe_corpus.txt pins.
#pragma once

#include <cstdint>
#include <vector>

#include "net/addr.hpp"

namespace drs::core {

class PeerTable {
 public:
  static constexpr std::int64_t kNoDeadline =
      std::int64_t{0x7FFFFFFFFFFFFFFF};

  /// `peers`: the monitored peer ids in ascending order (the sweep order).
  /// Every entry starts with no probe outstanding.
  explicit PeerTable(std::vector<net::NodeId> peers);

  /// The monitored peers, by slot in ascending id order.
  std::size_t peer_count() const { return peer_ids_.size(); }
  net::NodeId peer(std::uint32_t slot) const { return peer_ids_[slot]; }

  /// Probe entries per cycle: 2 per peer, ordered (peer asc, network 0..1).
  std::size_t entry_count() const { return peer_ids_.size() * 2u; }

  /// Flat entry index of (peer slot, network).
  static std::uint32_t entry(std::uint16_t slot, net::NetworkId network) {
    return 2u * slot + network;
  }
  net::NodeId entry_peer(std::uint32_t entry) const { return peer(entry >> 1); }
  static net::NetworkId entry_network(std::uint32_t entry) {
    return static_cast<net::NetworkId>(entry & 1u);
  }

  /// Records an in-flight probe: sequence number, send instant and absolute
  /// expiry deadline.
  void mark_sent(std::uint32_t entry, std::uint16_t seq, std::int64_t sent_ns,
                 std::int64_t deadline_ns) {
    seq_[entry] = seq;
    sent_ns_[entry] = sent_ns;
    deadline_ns_[entry] = deadline_ns;
  }

  /// Clears the in-flight probe (reply arrived, expiry fired, or cancelled).
  void clear_outstanding(std::uint32_t entry) {
    deadline_ns_[entry] = kNoDeadline;
  }

  bool outstanding(std::uint32_t entry) const {
    return deadline_ns_[entry] != kNoDeadline;
  }
  std::uint16_t seq(std::uint32_t entry) const { return seq_[entry]; }
  std::int64_t sent_ns(std::uint32_t entry) const { return sent_ns_[entry]; }
  std::int64_t deadline_ns(std::uint32_t entry) const {
    return deadline_ns_[entry];
  }

 private:
  std::vector<net::NodeId> peer_ids_;  // ascending; sweep order
  // Parallel lanes indexed by entry = 2*slot + network.
  std::vector<std::uint16_t> seq_;         // in-flight echo sequence number
  std::vector<std::int64_t> sent_ns_;      // in-flight echo send instant
  std::vector<std::int64_t> deadline_ns_;  // expiry; kNoDeadline = idle
};

}  // namespace drs::core
