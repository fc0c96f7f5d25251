// Construction footprint: what building a cluster and its DRS daemons asks
// of the heap, per monitored (node, peer) pair. A counting replacement of the
// global operator new sees every allocation the constructors make, so any
// per-link object that creeps back into the daemon, the ARP table or the
// ICMP service shows up here as bytes or allocations per pair.
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

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  g_bytes += size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

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
  // N = 90 is Fig. 1's anchor cluster. Fixed costs (the event-slot table,
  // the backplanes) still dominate at N = 8, so the per-pair bound is only
  // meaningful from a few dozen nodes up. Measured: 308 B and 0.23
  // allocations per pair; one allocation per pair (a node-based container
  // keyed by peer) would break the allocation bound.
  expect_per_pair_footprint(90, 384.0, 0.5);
}

TEST(ConstructionFootprint, PerPairHeapStaysSmallAt256Nodes) {
  // Measured: 288 B and 0.08 allocations per pair.
  expect_per_pair_footprint(256, 360.0, 0.25);
}

}  // namespace
}  // namespace drs
