// Steady-state allocation audit: after warmup, the probe hot path must run
// entirely out of recycled storage — no new arena chunks, no event-slot
// growth, no delivery-ring growth — while probes keep flowing. The counters
// come from DrsSystem::collect_metrics, so this test also pins the metric
// names docs/PERFORMANCE.md documents.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "cluster/fleet.hpp"
#include "cluster/partition.hpp"
#include "core/builder.hpp"
#include "core/system.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "util/arena.hpp"

namespace drs {
namespace {

struct AllocSnapshot {
  std::int64_t arena_chunks = 0;
  std::int64_t arena_bytes = 0;
  std::int64_t arena_oversize = 0;
  std::int64_t event_slots = 0;
  std::int64_t flight_slots_a = 0;
  std::int64_t flight_slots_b = 0;
  std::int64_t probes_sent = 0;
  std::int64_t arena_allocations = 0;
  std::int64_t arena_freelist_hits = 0;
};

AllocSnapshot snapshot(const core::DrsSystem& system) {
  // A fresh registry per snapshot: counters in collect_metrics are absolute
  // re-adds, so reusing one registry would double-count.
  obs::MetricRegistry registry;
  system.collect_metrics(registry);
  AllocSnapshot snap;
  snap.arena_chunks = registry.gauge("arena.chunks").value();
  snap.arena_bytes = registry.gauge("arena.bytes_reserved").value();
  snap.arena_oversize = registry.counter("arena.oversize").value();
  snap.event_slots = registry.gauge("sim.event_slots").value();
  snap.flight_slots_a =
      registry.gauge(obs::MetricRegistry::scoped("backplane", 0, "flight_slots"))
          .value();
  snap.flight_slots_b =
      registry.gauge(obs::MetricRegistry::scoped("backplane", 1, "flight_slots"))
          .value();
  snap.arena_allocations = registry.counter("arena.allocations").value();
  snap.arena_freelist_hits = registry.counter("arena.freelist_hits").value();
  for (std::uint64_t node = 0; node < 4; ++node) {
    snap.probes_sent +=
        registry
            .counter(obs::MetricRegistry::scoped("daemon", node, "probes_sent"))
            .value();
  }
  return snap;
}

TEST(ZeroAllocSteadyState, ProbeCyclesReuseWarmedUpStorage) {
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 4, .backplane = {}});
  core::DrsSystem system(network, core::DrsConfig{});
  system.start();

  // Warmup: several full monitoring cycles so every pool reaches its peak —
  // probe payloads, event slots, in-flight frames, outstanding tables.
  sim.run_for(util::Duration::seconds(2));
  const AllocSnapshot warm = snapshot(system);
  ASSERT_GT(warm.probes_sent, 0);
  ASSERT_GT(warm.arena_chunks, 0);
  // Every frame in flight sits in its backplane's delivery ring, so the
  // gauges count real storage.
  ASSERT_GT(warm.flight_slots_a, 0);
  ASSERT_GT(warm.flight_slots_b, 0);

  // Steady state: 5 more seconds of probing must not grow anything.
  sim.run_for(util::Duration::seconds(5));
  const AllocSnapshot steady = snapshot(system);

  EXPECT_GT(steady.probes_sent, warm.probes_sent) << "no probe traffic ran";
  EXPECT_EQ(steady.arena_chunks, warm.arena_chunks)
      << "arena grew new chunks after warmup";
  EXPECT_EQ(steady.arena_bytes, warm.arena_bytes);
  EXPECT_EQ(steady.arena_oversize, warm.arena_oversize)
      << "a hot-path allocation bypassed the size classes";
  EXPECT_EQ(steady.event_slots, warm.event_slots)
      << "the event queue grew its slot table after warmup";
  EXPECT_EQ(steady.flight_slots_a, warm.flight_slots_a)
      << "backplane A grew its delivery ring after warmup";
  EXPECT_EQ(steady.flight_slots_b, warm.flight_slots_b)
      << "backplane B grew its delivery ring after warmup";

  // The pool is being exercised, not bypassed: allocations keep happening
  // and (once warm) they are served from the free lists.
  EXPECT_GT(steady.arena_allocations, warm.arena_allocations);
  EXPECT_GT(steady.arena_freelist_hits, warm.arena_freelist_hits);
}

TEST(ZeroAllocSteadyState, FleetScaleProbeFabricReusesWarmedUpStorage) {
  // The paper's full deployment shape — 27 clusters of 8, one simulator —
  // must hold the same steady-state guarantee as a single cluster: the
  // geometry-derived reservations (event queue, delivery rings, timeout
  // records) reach their peak during warmup and never grow again.
  sim::Simulator sim;
  cluster::FleetConfig config;
  config.clusters = 27;
  config.nodes_per_cluster = 8;
  cluster::Fleet fleet(sim, config);
  fleet.start();

  const auto fleet_snapshot = [&fleet] {
    obs::MetricRegistry registry;
    fleet.collect_metrics(registry);
    AllocSnapshot snap;
    snap.arena_chunks = registry.gauge("arena.chunks").value();
    snap.arena_bytes = registry.gauge("arena.bytes_reserved").value();
    snap.arena_oversize = registry.counter("arena.oversize").value();
    snap.event_slots = registry.gauge("sim.event_slots").value();
    snap.flight_slots_a = registry.gauge("fleet.flight_slots").value();
    snap.probes_sent = static_cast<std::int64_t>(fleet.total_probes_sent());
    return snap;
  };

  fleet.settle(util::Duration::seconds(2));
  const AllocSnapshot warm = fleet_snapshot();
  ASSERT_GT(warm.probes_sent, 0);
  ASSERT_GT(warm.arena_chunks, 0);
  ASSERT_GT(warm.flight_slots_a, 0);

  fleet.settle(util::Duration::seconds(5));
  const AllocSnapshot steady = fleet_snapshot();

  EXPECT_GT(steady.probes_sent, warm.probes_sent) << "no probe traffic ran";
  EXPECT_EQ(steady.arena_chunks, warm.arena_chunks)
      << "arena grew new chunks after fleet warmup";
  EXPECT_EQ(steady.arena_bytes, warm.arena_bytes);
  EXPECT_EQ(steady.arena_oversize, warm.arena_oversize)
      << "a hot-path allocation bypassed the size classes";
  EXPECT_EQ(steady.event_slots, warm.event_slots)
      << "the event queue grew its slot table after fleet warmup";
  EXPECT_EQ(steady.flight_slots_a, warm.flight_slots_a)
      << "a backplane grew its delivery ring after fleet warmup";
  fleet.stop();
}

TEST(ZeroAllocSteadyState, ShardedFleetReusesWarmedUpStoragePerShard) {
  // The sharded fleet must hold the zero-alloc guarantee per shard: every
  // shard's queue and arena reach their peak during warmup and stay flat
  // while probes keep flowing, and the aggregated gauges (summed over
  // shards) stay flat too. Windows keep running, so the window execution
  // and merge machinery is also covered by the "no growth" check — its
  // scratch vectors retain capacity across windows.
  cluster::ShardedFleetConfig config;
  config.fleet.clusters = 8;
  config.fleet.nodes_per_cluster = 4;
  config.shards = 4;
  cluster::ShardedFleet fleet(config);
  fleet.start();

  struct ShardSnapshot {
    std::int64_t chunks = 0;
    std::int64_t bytes = 0;
    std::int64_t event_slots = 0;
  };
  struct FleetSnapshot {
    AllocSnapshot total;
    std::int64_t windows = 0;
    ShardSnapshot shard[4];
  };
  const auto sharded_snapshot = [&fleet] {
    obs::MetricRegistry registry;
    fleet.collect_metrics(registry);
    FleetSnapshot snap;
    snap.total.arena_chunks = registry.gauge("arena.chunks").value();
    snap.total.arena_bytes = registry.gauge("arena.bytes_reserved").value();
    snap.total.arena_oversize = registry.counter("arena.oversize").value();
    snap.total.event_slots = registry.gauge("sim.event_slots").value();
    snap.total.flight_slots_a = registry.gauge("fleet.flight_slots").value();
    snap.total.arena_allocations =
        registry.counter("arena.allocations").value();
    snap.total.arena_freelist_hits =
        registry.counter("arena.freelist_hits").value();
    snap.total.probes_sent =
        static_cast<std::int64_t>(fleet.total_probes_sent());
    snap.windows = registry.gauge("shard.windows").value();
    for (std::uint32_t s = 0; s < 4; ++s) {
      snap.shard[s].chunks =
          registry.gauge(obs::MetricRegistry::scoped("shard", s, "arena_chunks"))
              .value();
      snap.shard[s].bytes =
          registry
              .gauge(obs::MetricRegistry::scoped("shard", s,
                                                 "arena_bytes_reserved"))
              .value();
      snap.shard[s].event_slots =
          registry.gauge(obs::MetricRegistry::scoped("shard", s, "event_slots"))
              .value();
    }
    return snap;
  };

  fleet.run_until(util::SimTime::zero() + util::Duration::seconds(2));
  const FleetSnapshot warm = sharded_snapshot();
  ASSERT_GT(warm.total.probes_sent, 0);
  ASSERT_GT(warm.total.arena_chunks, 0);
  ASSERT_GT(warm.total.flight_slots_a, 0);
  ASSERT_GT(warm.windows, 0);

  fleet.run_until(util::SimTime::zero() + util::Duration::seconds(5));
  const FleetSnapshot steady = sharded_snapshot();

  EXPECT_GT(steady.total.probes_sent, warm.total.probes_sent)
      << "no probe traffic ran";
  EXPECT_GT(steady.windows, warm.windows) << "no windows ran in steady state";
  EXPECT_EQ(steady.total.arena_chunks, warm.total.arena_chunks)
      << "an arena grew new chunks after sharded warmup";
  EXPECT_EQ(steady.total.arena_bytes, warm.total.arena_bytes);
  EXPECT_EQ(steady.total.arena_oversize, warm.total.arena_oversize)
      << "a hot-path allocation bypassed the size classes";
  EXPECT_EQ(steady.total.event_slots, warm.total.event_slots)
      << "an event queue grew its slot table after sharded warmup";
  EXPECT_EQ(steady.total.flight_slots_a, warm.total.flight_slots_a)
      << "a backplane grew its delivery ring after sharded warmup";
  for (std::uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(steady.shard[s].chunks, warm.shard[s].chunks) << "shard " << s;
    EXPECT_EQ(steady.shard[s].bytes, warm.shard[s].bytes) << "shard " << s;
    EXPECT_EQ(steady.shard[s].event_slots, warm.shard[s].event_slots)
        << "shard " << s;
  }
  // Per-shard pools are exercised, not bypassed.
  EXPECT_GT(steady.total.arena_allocations, warm.total.arena_allocations);
  EXPECT_GT(steady.total.arena_freelist_hits, warm.total.arena_freelist_hits);
}

TEST(ZeroAllocSteadyState, ArenaResetRetainsChunksAcrossRuns) {
  // The chaos runner's per-worker pattern: reset() between campaigns must
  // rewind without releasing memory, so run 2 reuses run 1's chunks.
  util::Arena arena;
  {
    sim::Simulator sim(&arena);
    net::ClusterNetwork network(sim, {.node_count = 4, .backplane = {}});
    core::DrsSystem system(network, core::DrsConfig{});
    system.start();
    sim.run_for(util::Duration::seconds(1));
  }
  const std::uint64_t chunks_after_first = arena.stats().chunks;
  const std::uint64_t bytes_after_first = arena.stats().bytes_reserved;
  ASSERT_GT(chunks_after_first, 0u);

  arena.reset();
  EXPECT_EQ(arena.stats().chunks, chunks_after_first);
  {
    sim::Simulator sim(&arena);
    net::ClusterNetwork network(sim, {.node_count = 4, .backplane = {}});
    core::DrsSystem system(network, core::DrsConfig{});
    system.start();
    sim.run_for(util::Duration::seconds(1));
  }
  EXPECT_EQ(arena.stats().chunks, chunks_after_first)
      << "an identical second run should fit the first run's chunks";
  EXPECT_EQ(arena.stats().bytes_reserved, bytes_after_first);
  EXPECT_EQ(arena.stats().resets, 1u);
}

}  // namespace
}  // namespace drs
