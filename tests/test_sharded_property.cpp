// Invariants of the sharded engine that the differential corpus relies on
// but does not observe directly:
//   - window containment: no event ever executes outside the window its
//     shard was released for, or out of (time, key) order;
//   - conservative arrivals: no cross-shard event is ever enqueued for a
//     sim-time the destination shard may already have executed past
//     (min_foreign_margin_ns >= 0);
//   - the merged trace is globally time-ordered ((time, key) order refines
//     time order, so a sorted merge is an invariant, not a post-processing
//     step), and a shard ring too small to hold a window raises an error
//     instead of corrupting it;
//   - GlobalEventId keeps identities distinct across shard namespaces even
//     where per-queue 32-bit generations wrap and local ids collide.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "cluster/partition.hpp"
#include "obs/event.hpp"
#include "obs/export.hpp"
#include "sim/sharded.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace drs {
namespace {

// -- GlobalEventId ------------------------------------------------------------

sim::EventId local_id(std::uint32_t generation, std::uint32_t slot) {
  return (static_cast<sim::EventId>(generation) << 32) | slot;
}

TEST(ShardedProperty, GlobalIdsDistinctAcrossShardNamespaces) {
  // Local ids recycle (generation, slot) per queue, so two shards WILL
  // produce equal local ids; the qualified pair must stay unique — including
  // when a queue's generation counter wraps back to a previously-issued
  // value for a different slot.
  const std::uint32_t generations[] = {0u, 1u, 0xFFFFFFFFu};
  const std::uint32_t slots[] = {0u, 7u};
  const std::uint32_t shards[] = {0u, 1u, 7u};
  std::set<sim::GlobalEventId> seen;
  for (const std::uint32_t shard : shards)
    for (const std::uint32_t generation : generations)
      for (const std::uint32_t slot : slots)
        EXPECT_TRUE(
            seen.insert(sim::GlobalEventId{shard, local_id(generation, slot)})
                .second);
  EXPECT_EQ(seen.size(), 18u);

  // Same local id, different shard: distinct and ordered by shard first.
  const sim::GlobalEventId a{0, local_id(3, 5)};
  const sim::GlobalEventId b{1, local_id(3, 5)};
  EXPECT_NE(a, b);
  EXPECT_LT(a, b);
  // Generation wraparound: gen 2^32-1 then gen 0 of the same slot are the
  // same queue cell at different lifetimes — distinct identities.
  EXPECT_NE((sim::GlobalEventId{2, local_id(0xFFFFFFFFu, 9)}),
            (sim::GlobalEventId{2, local_id(0u, 9)}));
}

// -- engine-level window containment -----------------------------------------

/// Self-rescheduling chain with a stride deliberately misaligned with the
/// window length, so chain ticks keep straddling window boundaries.
struct Chain {
  sim::Simulator* sim = nullptr;
  std::int64_t step_ns = 0;
  std::int64_t until_ns = 0;
  std::uint64_t ticks = 0;

  void tick() {
    ++ticks;
    if (sim->now().ns() + step_ns > until_ns) return;
    sim->schedule_after(util::Duration::nanos(step_ns), [this] { tick(); });
  }
};

TEST(ShardedProperty, NoEventExecutesOutsideItsWindow) {
  sim::ShardedEngine::Options options;
  options.shards = 4;
  options.lookahead_ns = 5000;
  // Fixed-lookahead windows on purpose (capped at the lookahead): these
  // chains are untagged (no boundary events at all), so uncapped windows
  // would legally collapse the whole run into one window and containment
  // would be tested vacuously.
  options.max_window_ns = options.lookahead_ns;
  sim::ShardedEngine engine(options);

  std::vector<Chain> chains(options.shards);
  for (std::uint32_t s = 0; s < options.shards; ++s) {
    engine.begin_setup_segment(s);
    Chain& chain = chains[s];
    chain.sim = &engine.simulator(s);
    chain.step_ns = 1300 + 7 * s;  // never a multiple of the 5000ns window
    chain.until_ns = 2'000'000;
    chain.sim->schedule_at(util::SimTime::zero() +
                               util::Duration::nanos(100 + 13 * s),
                           [&chain] { chain.tick(); });
    engine.end_setup_segment();
  }

  engine.run_until(util::SimTime::zero() + util::Duration::millis(2));
  EXPECT_EQ(engine.window_violations(), 0u);
  EXPECT_GT(engine.windows_run(), 0u);
  std::uint64_t total_ticks = 0;
  for (const Chain& chain : chains) {
    EXPECT_GT(chain.ticks, 1000u);  // ~2ms / ~1.3us per tick
    total_ticks += chain.ticks;
  }
  EXPECT_EQ(engine.events_executed(), total_ticks);
  // No cross-shard traffic was offered, so the margin tracker is untouched.
  EXPECT_EQ(engine.min_foreign_margin_ns(),
            std::numeric_limits<std::int64_t>::max());
}

// -- fleet-level: conservative margins and merged-trace order ----------------

TEST(ShardedProperty, FleetForeignArrivalsRespectLookahead) {
  cluster::ShardedFleetConfig config;
  config.fleet.clusters = 4;
  config.fleet.nodes_per_cluster = 4;
  config.fleet.drs = chaos::fast_campaign_drs_config();
  config.shards = 4;
  cluster::ShardedFleet fleet(config);
  fleet.start();
  // Exercise the oracle's failure path too: a relay blip plus a gateway
  // outage mid-run.
  fleet.schedule_component_failure(
      util::SimTime::zero() + util::Duration::millis(300),
      fleet.relay_backplane_component(), true);
  fleet.schedule_component_failure(
      util::SimTime::zero() + util::Duration::millis(450),
      fleet.relay_backplane_component(), false);
  fleet.schedule_component_failure(
      util::SimTime::zero() + util::Duration::millis(500),
      fleet.gateway_component(2), true);
  fleet.run_until(util::SimTime::zero() + util::Duration::millis(800));

  const sim::ShardedEngine& engine = fleet.engine();
  EXPECT_EQ(engine.window_violations(), 0u);
  EXPECT_GT(engine.windows_run(), 0u);
  // The gateway echo mesh guarantees cross-shard traffic; every arrival must
  // carry a non-negative margin against the earliest still-executable window.
  EXPECT_LT(engine.min_foreign_margin_ns(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_GE(engine.min_foreign_margin_ns(), 0);

  // (time, key) order refines time order: the merged stream is
  // non-decreasing in at_ns with no post-sort.
  const std::vector<obs::TraceEvent>& trace = fleet.merged_trace();
  ASSERT_FALSE(trace.empty());
  for (std::size_t i = 1; i < trace.size(); ++i) {
    ASSERT_GE(trace[i].at_ns, trace[i - 1].at_ns) << "at merged index " << i;
  }
}

// A ring that evicts events before the barrier merges them throws, in every
// build, before anything of that window reaches the merged trace: what was
// merged stays a prefix of the true trace.
TEST(ShardedProperty, TraceLossThrowsBeforeTheMerge) {
  cluster::ShardedFleetConfig config;
  config.fleet.clusters = 4;
  config.fleet.nodes_per_cluster = 8;
  config.fleet.drs = chaos::fast_campaign_drs_config();
  config.shards = 2;
  const util::SimTime until =
      util::SimTime::zero() + util::Duration::millis(500);
  cluster::ShardedFleet reference(config);
  reference.start();
  reference.run_until(until);

  config.trace_capacity = 64;
  cluster::ShardedFleet fleet(config);
  fleet.start();
  try {
    fleet.run_until(until);
    ADD_FAILURE() << "a 64-event ring cannot hold a window of this fleet";
  } catch (const sim::TraceLossError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("shard "), std::string::npos) << what;
    EXPECT_NE(what.find("trace_capacity (now 64)"), std::string::npos) << what;
  }
  const std::vector<obs::TraceEvent>& merged = fleet.merged_trace();
  const std::vector<obs::TraceEvent>& full = reference.merged_trace();
  ASSERT_LE(merged.size(), full.size());
  EXPECT_EQ(obs::to_canonical_json(merged),
            obs::to_canonical_json(std::vector<obs::TraceEvent>(
                full.begin(),
                full.begin() + static_cast<std::ptrdiff_t>(merged.size()))));
}

TEST(ShardedProperty, RequiresHubRelayWithZeroJitter) {
  cluster::ShardedFleetConfig config;
  config.fleet.clusters = 2;
  config.fleet.nodes_per_cluster = 4;
  config.fleet.drs = chaos::fast_campaign_drs_config();
  config.fleet.relay_backplane.jitter = util::Duration::micros(1);
  EXPECT_THROW(cluster::ShardedFleet{config}, std::invalid_argument);
}

// The contracts hold in every build type, not only where assert() is live.
TEST(ShardedProperty, ContractsThrowBeforeTheRun) {
  cluster::ShardedFleetConfig config;
  config.fleet.clusters = 0;
  EXPECT_THROW(cluster::ShardedFleet{config}, std::invalid_argument);

  config.fleet.clusters = 2;
  config.fleet.nodes_per_cluster = 4;
  config.fleet.drs = chaos::fast_campaign_drs_config();
  config.shards = 2;
  cluster::ShardedFleet fleet(config);
  const util::SimTime at = util::SimTime::zero() + util::Duration::millis(10);
  EXPECT_THROW(fleet.schedule_component_failure(at, 0, true), std::logic_error);
  fleet.start();
  const net::ComponentIndex past = fleet.component_count();
  EXPECT_THROW(fleet.schedule_component_failure(at, past, true),
               std::out_of_range);
  fleet.run_until(at);
  EXPECT_THROW(fleet.schedule_component_failure(
                   at, fleet.relay_backplane_component(), true),
               std::logic_error);
}

}  // namespace
}  // namespace drs
