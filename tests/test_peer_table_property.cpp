// Property test for core::PeerTable, the struct-of-arrays probe fabric behind
// the probe sweep. Membership is fixed at construction, so what remains to
// pin is the construction order (= sweep order), the entry layout, and the
// mark-sent/clear round trip: seeded random probe traffic checked against a
// naive per-entry reference model after every operation, every lane of every
// entry. Same seed discipline as tests/test_sim_queue_property.cpp: a few
// deep seeded runs plus many short ones.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/peer_table.hpp"
#include "util/rng.hpp"

namespace drs::core {
namespace {

/// A daemon's monitored set: ascending ids with gaps (self and unmonitored
/// nodes absent).
const std::vector<net::NodeId> kPeers{0, 1, 3, 4, 9, 17, 30, 47};

struct EntryModel {
  std::uint16_t seq = 0;
  std::int64_t sent_ns = 0;
  std::int64_t deadline = PeerTable::kNoDeadline;
};

TEST(PeerTableProperty, ConstructionOrderIsTheSweepOrder) {
  const PeerTable table(kPeers);
  ASSERT_EQ(table.entry_count(), 2u * kPeers.size());
  for (std::uint16_t slot = 0; slot < kPeers.size(); ++slot) {
    for (net::NetworkId network = 0; network < 2; ++network) {
      const std::uint32_t entry = PeerTable::entry(slot, network);
      EXPECT_EQ(entry, 2u * slot + network);
      EXPECT_EQ(table.entry_peer(entry), kPeers[slot]);
      EXPECT_EQ(PeerTable::entry_network(entry), network);
      EXPECT_FALSE(table.outstanding(entry));
      EXPECT_EQ(table.deadline_ns(entry), PeerTable::kNoDeadline);
    }
  }
  EXPECT_EQ(PeerTable({}).entry_count(), 0u);
}

void run_round_trip(std::uint64_t seed, int ops) {
  PeerTable table(kPeers);
  std::vector<EntryModel> model(table.entry_count());
  util::Rng rng(seed);
  std::int64_t now_ns = 0;
  std::uint16_t next_seq = 1;

  for (int op = 0; op < ops; ++op) {
    now_ns += static_cast<std::int64_t>(rng.next_below(500'000));
    const auto entry = static_cast<std::uint32_t>(rng.next_below(model.size()));
    if (rng.next_below(3) != 0) {
      // Probe send (a re-send overwrites the entry's in-flight probe).
      const std::int64_t deadline =
          now_ns + 1 + static_cast<std::int64_t>(rng.next_below(2'000'000));
      table.mark_sent(entry, next_seq, now_ns, deadline);
      model[entry] = EntryModel{next_seq, now_ns, deadline};
      ++next_seq;  // wraps like the 16-bit ICMP sequence space
    } else {
      // Completion (reply or expiry — both clear the same way).
      table.clear_outstanding(entry);
      model[entry].deadline = PeerTable::kNoDeadline;
    }
    for (std::uint32_t e = 0; e < model.size(); ++e) {
      const EntryModel& m = model[e];
      ASSERT_EQ(table.outstanding(e), m.deadline != PeerTable::kNoDeadline)
          << "entry " << e << " after op " << op;
      ASSERT_EQ(table.seq(e), m.seq) << e;
      ASSERT_EQ(table.sent_ns(e), m.sent_ns) << e;
      ASSERT_EQ(table.deadline_ns(e), m.deadline) << e;
    }
  }
}

TEST(PeerTableProperty, RoundTripMatchesReferenceModelSeed1) {
  run_round_trip(0x9EE51u, 4000);
}

TEST(PeerTableProperty, RoundTripMatchesReferenceModelSeed2) {
  run_round_trip(0x9EE52u, 4000);
}

TEST(PeerTableProperty, ManySeedsShortRuns) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    run_round_trip(seed * 0x9E3779B9u, 300);
  }
}

}  // namespace
}  // namespace drs::core
