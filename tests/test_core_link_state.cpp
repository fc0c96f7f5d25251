#include "core/link_state.hpp"

#include <gtest/gtest.h>

#include <map>
#include <tuple>
#include <vector>

#include "core/system.hpp"
#include "net/network.hpp"
#include "obs/tracer.hpp"

namespace drs::core {
namespace {

using util::SimTime;

SimTime at(std::int64_t ms) {
  return SimTime::zero() + util::Duration::millis(ms);
}

constexpr std::int64_t traced(LinkState state) {
  return static_cast<std::int64_t>(state);
}

/// The reference downtime fold: DOWN episodes replayed from a run's
/// kLinkChange trace events, per (node, peer, network) link. A DOWN verdict
/// opens an episode and the recovery closes it, in whole milliseconds; an
/// episode still open is not counted.
obs::IntHistogram fold_trace(const std::vector<obs::TraceEvent>& events) {
  obs::IntHistogram folded({kDowntimeEdgesMs.begin(), kDowntimeEdgesMs.end()});
  std::map<std::tuple<int, int, int>, std::int64_t> down_since;
  for (const obs::TraceEvent& e : events) {
    if (e.kind != obs::TraceEventKind::kLinkChange) continue;
    const auto link = std::make_tuple(e.node, e.peer, e.network);
    if (e.b == traced(LinkState::kDown)) {
      down_since.emplace(link, e.at_ns);
    } else if (e.a == traced(LinkState::kDown)) {
      const auto it = down_since.find(link);
      if (it != down_since.end()) {
        folded.add((e.at_ns - it->second) / 1'000'000);
        down_since.erase(it);
      }
    }
  }
  return folded;
}

void expect_same_histogram(const obs::IntHistogram& actual,
                           const obs::IntHistogram& expected) {
  ASSERT_EQ(actual.edges(), expected.edges());
  EXPECT_EQ(actual.count(), expected.count());
  EXPECT_EQ(actual.sum(), expected.sum());
  for (std::size_t i = 0; i < expected.bucket_count(); ++i) {
    EXPECT_EQ(actual.bucket(i), expected.bucket(i)) << "bucket " << i;
  }
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

TEST(LinkStateTable, TransitionsAreTraced) {
  obs::Tracer tracer;
  LinkStateTable table(0, 4, {.failures_to_down = 2, .successes_to_up = 1});
  table.set_tracer(&tracer);
  table.record_probe(2, 1, false, at(10));
  table.record_probe(2, 1, false, at(20));
  table.record_probe(2, 1, true, at(30));
  const std::vector<obs::TraceEvent> events = tracer.events();
  EXPECT_EQ(tracer.evicted(), 0u);
  ASSERT_EQ(events.size(), 3u);  // up->suspect, suspect->down, down->up
  for (const obs::TraceEvent& e : events) {
    EXPECT_EQ(e.kind, obs::TraceEventKind::kLinkChange);
    EXPECT_EQ(e.node, 0);
    EXPECT_EQ(e.peer, 2);
    EXPECT_EQ(e.network, 1);
  }
  EXPECT_EQ(events[0].a, traced(LinkState::kUp));
  EXPECT_EQ(events[0].b, traced(LinkState::kSuspect));
  EXPECT_EQ(events[1].b, traced(LinkState::kDown));
  EXPECT_EQ(events[1].at_ns, at(20).ns());
  EXPECT_EQ(events[2].a, traced(LinkState::kDown));
  EXPECT_EQ(events[2].b, traced(LinkState::kUp));
}

TEST(LinkStateTable, DowntimeFoldsEpisodesAsTheyClose) {
  obs::Tracer tracer;
  LinkStateTable table(0, 4, {.failures_to_down = 2, .successes_to_up = 1});
  table.set_tracer(&tracer);
  // A SUSPECT blip is no episode, and a healthy table holds no histogram.
  table.record_probe(3, 0, false, at(1));
  table.record_probe(3, 0, true, at(2));
  EXPECT_FALSE(table.downtime_ms().has_value());

  const auto fail = [&](net::NodeId peer, net::NetworkId network,
                        SimTime first, SimTime second) {
    table.record_probe(peer, network, false, first);
    table.record_probe(peer, network, false, second);
  };
  const auto us = [](std::int64_t micros) {
    return SimTime::zero() + util::Duration::micros(micros);
  };
  // Several episodes on link (1, 0): 15 ms, 400 us (below one whole
  // millisecond) and 2.5 s.
  fail(1, 0, at(5), at(10));
  // Link (2, 1) goes DOWN inside the first episode and recovers after the
  // second: overlapping episodes on two links, 130 ms.
  fail(2, 1, at(15), at(20));
  table.record_probe(1, 0, true, at(25));
  fail(1, 0, at(95), at(100));
  table.record_probe(1, 0, true, us(100'400));
  table.record_probe(2, 1, true, at(150));
  fail(1, 0, at(190), at(200));
  table.record_probe(1, 0, true, at(2700));
  // Link (3, 1) is still DOWN at the snapshot: not counted.
  fail(3, 1, at(2900), at(3000));

  const auto& downtime = table.downtime_ms();
  ASSERT_TRUE(downtime.has_value());
  EXPECT_EQ(downtime->count(), 4);
  EXPECT_EQ(downtime->sum(), 15 + 0 + 2500 + 130);
  EXPECT_EQ(downtime->bucket(0), 1);  // the 400 us episode counts as 0 ms
  EXPECT_EQ(tracer.evicted(), 0u);
  expect_same_histogram(*downtime, fold_trace(tracer.events()));
}

TEST(LinkStateTable, SystemDowntimeMatchesTheTraceFold) {
  // The snapshot's histogram sums every daemon's table. Node 1's network-0
  // NIC flaps (several episodes per observer), node 3's network-1 NIC fails
  // across two of those flaps (overlapping episodes on other links), and
  // node 4's network-0 NIC is still failed at the snapshot (open episodes).
  sim::Simulator sim;
  obs::Tracer tracer(std::size_t{1} << 20);
  sim.set_tracer(&tracer);
  net::ClusterNetwork network(sim, {.node_count = 5, .backplane = {}});
  DrsConfig config;
  config.probe_interval = util::Duration::millis(50);
  config.probe_timeout = util::Duration::millis(20);
  config.failures_to_down = 1;
  DrsSystem system(network, config);
  system.start();
  sim.run_for(util::Duration::millis(300));
  const auto toggle = [&](net::ComponentIndex component, bool failed,
                          util::Duration then) {
    network.set_component_failed(component, failed);
    sim.run_for(then);
  };
  const auto nic_1a = net::ClusterNetwork::nic_component(1, 0);
  const auto nic_3b = net::ClusterNetwork::nic_component(3, 1);
  toggle(nic_1a, true, util::Duration::millis(200));
  toggle(nic_3b, true, util::Duration::millis(100));
  toggle(nic_1a, false, util::Duration::millis(300));
  toggle(nic_1a, true, util::Duration::millis(150));
  toggle(nic_3b, false, util::Duration::millis(250));
  toggle(nic_1a, false, util::Duration::millis(400));
  toggle(net::ClusterNetwork::nic_component(4, 0), true,
         util::Duration::millis(500));

  obs::MetricRegistry registry;
  snapshot_metrics(system, registry);
  const obs::IntHistogram& downtime = registry.histogram(
      "system.link_downtime_ms",
      {kDowntimeEdgesMs.begin(), kDowntimeEdgesMs.end()});
  EXPECT_EQ(tracer.evicted(), 0u);
  const obs::IntHistogram reference = fold_trace(tracer.events());
  // Four observers see each of node 1's two outages on network 0 and node
  // 3's on network 1; node 1 and node 3 each see the other's, too.
  EXPECT_GE(reference.count(), 12);
  expect_same_histogram(downtime, reference);
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
