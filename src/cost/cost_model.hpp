// Fig. 1: the cost of proactive monitoring.
//
// One full DRS monitoring cycle sends, per network, an echo request and an
// echo reply for every ordered (prober, peer) pair: 2·N·(N−1) frames. Under
// a bandwidth budget β of a link rate R, the fastest sustainable cycle — and
// therefore the error-resolution ("response") time the paper plots — is
//
//   T(N, β) = 2·N·(N−1)·frame_bits / (β·R)     per network, both in parallel.
//
// The closed form is cross-checked by `measure_cycle` which runs the real
// daemons on the packet-level simulator and reports the utilization and
// probe completion they actually achieve.
//
// Domain. The model counts a whole cycle's bits in 64 bits, so it covers
// clusters up to node_limit() (134,217,728 nodes with 64-byte frames);
// every function taking a node count throws std::invalid_argument, naming
// that limit, for a count outside [0, node_limit()] instead of wrapping.
// measure_cycle builds a real cluster and rejects a count outside
// [2, net::kMaxClusterNodes] the same way.
#pragma once

#include <cstdint>
#include <vector>

#include "cost/ethernet_model.hpp"
#include "net/backplane.hpp"
#include "util/time.hpp"

namespace drs::cost {

struct CostModel {
  double bits_per_second = 100e6;  // the paper's 100 Mb/s network
  EchoFrameModel frame;
  /// kHub reproduces the paper (shared medium: the whole cycle's 2N(N-1)
  /// frames share one budget — O(N^2) response time). kSwitch is the modern
  /// extension: each node's full-duplex port carries only its own 2(N-1)
  /// frames, so response time is O(N).
  net::MediumKind medium = net::MediumKind::kHub;

  /// Largest cluster the model covers: the whole cluster's bits per cycle,
  /// 2·N·(N−1)·frame_bits, must fit 64 bits (see the file comment).
  std::int64_t node_limit() const;
  /// Throws std::invalid_argument, naming node_limit(), unless 0 <= nodes
  /// <= node_limit().
  void check_nodes(std::int64_t nodes) const;

  /// Echo frames per network per monitoring cycle (whole cluster).
  std::uint64_t cycle_frames(std::int64_t nodes) const {
    check_nodes(nodes);
    if (nodes < 2) return 0;
    return 2ull * static_cast<std::uint64_t>(nodes) *
           static_cast<std::uint64_t>(nodes - 1);
  }

  /// Echo frames per *port* per cycle on a switched network.
  std::uint64_t cycle_frames_per_port(std::int64_t nodes) const {
    check_nodes(nodes);
    if (nodes < 2) return 0;
    return 2ull * static_cast<std::uint64_t>(nodes - 1);
  }

  /// Monitoring bits per cycle through the constraining resource: the shared
  /// medium (hub) or one port (switch).
  std::uint64_t cycle_bits(std::int64_t nodes) const {
    const std::uint64_t frames = medium == net::MediumKind::kHub
                                     ? cycle_frames(nodes)
                                     : cycle_frames_per_port(nodes);
    return frames * frame.frame_bits();
  }

  /// Error-resolution time at bandwidth budget `budget_fraction` (0, 1].
  double response_time_seconds(std::int64_t nodes, double budget_fraction) const;

  /// Largest cluster whose response time fits within `deadline` at the
  /// given budget (the paper's "maximum number of servers ... given a
  /// requirement for error resolution in X time units").
  std::int64_t max_nodes(double budget_fraction, double deadline_seconds) const;

  /// Fraction of the link one monitoring cycle of period `interval` uses.
  double utilization(std::int64_t nodes, util::Duration interval) const;
};

/// Packet-level cross-check: run a real N-node cluster with DRS probing at
/// `interval` for `cycles` cycles; report the measured medium utilization
/// and probe success (everything should complete when the budget implied by
/// the interval is feasible). Throws std::invalid_argument, naming the
/// limit, for `nodes` outside [2, net::kMaxClusterNodes].
struct MeasuredCycle {
  double utilization_network_a = 0.0;
  double utilization_network_b = 0.0;
  std::uint64_t probes_sent = 0;
  std::uint64_t probes_failed = 0;
};

MeasuredCycle measure_cycle(std::int64_t nodes, util::Duration interval,
                            std::uint64_t cycles, const CostModel& model);

}  // namespace drs::cost
