// Heap footprint, counted by a replacement of the global operator new that
// sees every allocation.
//
// Construction: what building a cluster and its DRS daemons asks of the
// heap, per monitored (node, peer) pair, so any per-link object that creeps
// back into the daemon, the ARP table or the ICMP service shows up here as
// bytes or allocations per pair.
//
// Churn: what a running cluster keeps live as links keep failing and
// recovering. Nothing in a daemon may grow with run length, so once every
// pool has warmed up the live heap must stop moving.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/system.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace {

std::size_t g_bytes = 0;
std::size_t g_allocations = 0;
std::size_t g_live_bytes = 0;

// Each block carries its requested size in a header, so a free can take it
// off the live count.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  g_bytes += size;
  if (void* block = std::malloc(kHeader + size)) {
    *static_cast<std::size_t*>(block) = size;
    g_live_bytes += size;
    return static_cast<char*>(block) + kHeader;
  }
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  g_live_bytes -= *static_cast<std::size_t*>(block);
  std::free(block);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace drs {
namespace {

struct Footprint {
  std::size_t bytes = 0;
  std::size_t allocations = 0;
};

/// Heap asked for while building a ClusterNetwork plus a default DrsSystem
/// of `nodes` hosts (the simulator itself is built before counting starts).
Footprint construction_footprint(std::uint16_t nodes) {
  sim::Simulator sim;
  const std::size_t bytes_before = g_bytes;
  const std::size_t allocations_before = g_allocations;
  net::ClusterNetwork network(sim, {.node_count = nodes, .backplane = {}});
  core::DrsSystem system(network, core::DrsConfig{});
  return {g_bytes - bytes_before, g_allocations - allocations_before};
}

/// Builds a cluster of `nodes` and checks the heap it asked for per
/// monitored (node, peer) pair against the given bounds.
void expect_per_pair_footprint(std::uint16_t nodes, double max_bytes,
                               double max_allocations) {
  const Footprint footprint = construction_footprint(nodes);
  const double pairs = static_cast<double>(nodes) * (nodes - 1);
  const double bytes_per_pair = static_cast<double>(footprint.bytes) / pairs;
  const double allocations_per_pair =
      static_cast<double>(footprint.allocations) / pairs;
  std::printf("N=%u: %zu bytes in %zu allocations (%.0f B, %.2f per pair)\n",
              static_cast<unsigned>(nodes), footprint.bytes,
              footprint.allocations, bytes_per_pair, allocations_per_pair);
  EXPECT_LE(bytes_per_pair, max_bytes)
      << footprint.bytes << " bytes for " << pairs << " pairs";
  EXPECT_LE(allocations_per_pair, max_allocations)
      << footprint.allocations << " allocations for " << pairs << " pairs";
}

TEST(ConstructionFootprint, PerPairHeapStaysSmallAtTheFig1Anchor) {
  // N = 90 is Fig. 1's anchor cluster. Fixed costs (the backplanes, the
  // probe scheduler's rings) still dominate at N = 8, so the per-pair bound
  // is only meaningful from a few dozen nodes up. Measured: 262 B and 0.23
  // allocations per pair. The byte bound sits below the 309 B a cluster
  // cost when DrsSystem still reserved 16N + 8(N - 1) + 1024 event slots
  // up front, so such a reservation cannot quietly return; one allocation
  // per pair (a node-based container keyed by peer) would break the
  // allocation bound.
  expect_per_pair_footprint(90, 290.0, 0.5);
}

TEST(ConstructionFootprint, PerPairHeapStaysSmallAt256Nodes) {
  // Measured: 275 B and 0.08 allocations per pair.
  expect_per_pair_footprint(256, 360.0, 0.25);
}

TEST(ChurnFootprint, FlappingNicLeavesTheLiveHeapFlat) {
  // Node 1's network-0 NIC alternately fails and restores every 200 ms.
  // With 50 ms probes and a one-loss verdict every flap takes each
  // observer's link DOWN and back UP, and its route to node 1 onto network
  // B and back: two link transitions and two route changes per observer.
  // The first 5 flaps (2 s) are warm-up.
  sim::Simulator sim;
  net::ClusterNetwork network(sim, {.node_count = 5, .backplane = {}});
  core::DrsConfig config;
  config.probe_interval = util::Duration::millis(50);
  config.probe_timeout = util::Duration::millis(20);
  config.failures_to_down = 1;
  core::DrsSystem system(network, config);
  system.start();
  sim.run_for(util::Duration::millis(500));
  const net::ComponentIndex nic = net::ClusterNetwork::nic_component(1, 0);
  const auto flap = [&] {
    network.set_component_failed(nic, true);
    sim.run_for(util::Duration::millis(200));
    network.set_component_failed(nic, false);
    sim.run_for(util::Duration::millis(200));
  };
  for (int i = 0; i < 5; ++i) flap();
  const std::size_t live_after_5 = g_live_bytes;
  const std::uint64_t downs_after_5 =
      system.daemon(0).metrics().links_declared_down;
  for (int i = 5; i < 500; ++i) flap();
  const std::size_t live_after_500 = g_live_bytes;
  // The flaps bit: node 0 saw a DOWN verdict on every one.
  EXPECT_EQ(system.daemon(0).metrics().links_declared_down - downs_after_5,
            495u);
  EXPECT_EQ(live_after_500, live_after_5)
      << "the live heap grew by "
      << static_cast<std::int64_t>(live_after_500 - live_after_5)
      << " B over 495 flaps";
}

}  // namespace
}  // namespace drs
