#include "core/link_state.hpp"

#include <gtest/gtest.h>

namespace drs::core {
namespace {

using util::SimTime;

SimTime at(std::int64_t ms) {
  return SimTime::zero() + util::Duration::millis(ms);
}

TEST(LinkStateTable, StartsOptimisticallyUp) {
  LinkStateTable table(0, 4, {.failures_to_down = 2, .successes_to_up = 1});
  for (net::NodeId peer = 0; peer < 4; ++peer) {
    for (net::NetworkId k = 0; k < 2; ++k) {
      EXPECT_EQ(table.state(peer, k), LinkState::kUp);
      EXPECT_TRUE(table.usable(peer, k));
    }
  }
  EXPECT_EQ(table.down_count(), 0u);
}

TEST(LinkStateTable, SingleLossIsOnlySuspect) {
  LinkStateTable table(0, 4, {.failures_to_down = 2, .successes_to_up = 1});
  EXPECT_FALSE(table.record_probe(1, 0, false, at(0)));
  EXPECT_EQ(table.state(1, 0), LinkState::kSuspect);
  EXPECT_TRUE(table.usable(1, 0));  // no rerouting on one lost echo
}

TEST(LinkStateTable, ConsecutiveLossesDeclareDown) {
  LinkStateTable table(0, 4, {.failures_to_down = 3, .successes_to_up = 1});
  EXPECT_FALSE(table.record_probe(1, 0, false, at(0)));
  EXPECT_FALSE(table.record_probe(1, 0, false, at(1)));
  EXPECT_TRUE(table.record_probe(1, 0, false, at(2)));  // verdict change
  EXPECT_EQ(table.state(1, 0), LinkState::kDown);
  EXPECT_FALSE(table.usable(1, 0));
  EXPECT_EQ(table.down_count(), 1u);
}

TEST(LinkStateTable, SuccessClearsSuspect) {
  LinkStateTable table(0, 4, {.failures_to_down = 3, .successes_to_up = 1});
  table.record_probe(1, 0, false, at(0));
  table.record_probe(1, 0, false, at(1));
  EXPECT_FALSE(table.record_probe(1, 0, true, at(2)));  // no verdict change
  EXPECT_EQ(table.state(1, 0), LinkState::kUp);
  // Failure counter reset: two more losses are again only SUSPECT.
  table.record_probe(1, 0, false, at(3));
  table.record_probe(1, 0, false, at(4));
  EXPECT_EQ(table.state(1, 0), LinkState::kSuspect);
}

TEST(LinkStateTable, RecoveryHysteresis) {
  LinkStateTable table(0, 4, {.failures_to_down = 1, .successes_to_up = 3});
  EXPECT_TRUE(table.record_probe(1, 0, false, at(0)));
  EXPECT_EQ(table.state(1, 0), LinkState::kDown);
  EXPECT_FALSE(table.record_probe(1, 0, true, at(1)));
  EXPECT_FALSE(table.record_probe(1, 0, true, at(2)));
  EXPECT_EQ(table.state(1, 0), LinkState::kDown);  // still below threshold
  EXPECT_TRUE(table.record_probe(1, 0, true, at(3)));
  EXPECT_EQ(table.state(1, 0), LinkState::kUp);
}

TEST(LinkStateTable, FlappingLinkBouncesThroughThresholds) {
  LinkStateTable table(0, 4, {.failures_to_down = 2, .successes_to_up = 2});
  // loss, loss -> down
  table.record_probe(1, 0, false, at(0));
  table.record_probe(1, 0, false, at(1));
  EXPECT_EQ(table.state(1, 0), LinkState::kDown);
  // success, loss: success streak broken before reaching 2
  table.record_probe(1, 0, true, at(2));
  table.record_probe(1, 0, false, at(3));
  EXPECT_EQ(table.state(1, 0), LinkState::kDown);
  // two clean successes recover
  table.record_probe(1, 0, true, at(4));
  table.record_probe(1, 0, true, at(5));
  EXPECT_EQ(table.state(1, 0), LinkState::kUp);
}

TEST(LinkStateTable, LinksAreIndependent) {
  LinkStateTable table(0, 4, {.failures_to_down = 1, .successes_to_up = 1});
  table.record_probe(1, 0, false, at(0));
  EXPECT_EQ(table.state(1, 0), LinkState::kDown);
  EXPECT_EQ(table.state(1, 1), LinkState::kUp);
  EXPECT_EQ(table.state(2, 0), LinkState::kUp);
}

TEST(LinkStateTable, HistoryRecordsTransitions) {
  LinkStateTable table(0, 4, {.failures_to_down = 2, .successes_to_up = 1});
  table.record_probe(2, 1, false, at(10));
  table.record_probe(2, 1, false, at(20));
  table.record_probe(2, 1, true, at(30));
  const auto& history = table.history();
  ASSERT_EQ(history.size(), 3u);  // up->suspect, suspect->down, down->up
  EXPECT_EQ(history[0].from, LinkState::kUp);
  EXPECT_EQ(history[0].to, LinkState::kSuspect);
  EXPECT_EQ(history[1].to, LinkState::kDown);
  EXPECT_EQ(history[1].at, at(20));
  EXPECT_EQ(history[2].to, LinkState::kUp);
  EXPECT_EQ(history[2].peer, 2);
  EXPECT_EQ(history[2].network, 1);
}

TEST(LinkStateTable, ZeroThresholdsClampToOne) {
  LinkStateTable table(0, 4, {.failures_to_down = 0, .successes_to_up = 0});
  EXPECT_TRUE(table.record_probe(1, 0, false, at(0)));
  EXPECT_EQ(table.state(1, 0), LinkState::kDown);
  EXPECT_TRUE(table.record_probe(1, 0, true, at(1)));
  EXPECT_EQ(table.state(1, 0), LinkState::kUp);
}

}  // namespace
}  // namespace drs::core
