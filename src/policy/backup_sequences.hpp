// Precomputed per-destination backup sequences over the 2N+2 geometry.
//
// Both precomputed policies (static-resilient and alternate-path) share one
// setup-time artifact: for every ordered pair (src, dst), an ordered list of
// *arcs* to try — the two direct links (preferred network first), then every
// possible one-hop relay in circular order starting at src+1 (Chiesa-style
// circular fallback: the ring order is what makes the sequence loop-free
// without any coordination). In this topology a packet never needs more
// than one relay hop: if src and dst share no usable network, any node with
// a usable link to each provides a 2-hop path, and no 3-hop path exists
// that a 2-hop path does not (every traversal uses the same two backplanes).
//
// The `walk` entry point simulates the data plane under a given failure set
// with full visibility — the oracle the property tests compare against and
// the alternate-path policy's resolution primitive.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"

namespace drs::policy {

struct BackupArc {
  enum class Kind : std::uint8_t { kDirect, kRelay };
  Kind kind = Kind::kDirect;
  /// For kDirect: the network used end to end. Unused for kRelay (each leg
  /// picks its first usable network at resolution time).
  net::NetworkId network = net::kNetworkA;
  net::NodeId relay = 0;  // valid when kind == kRelay
};

/// The walk's verdict under one failure set (full visibility).
struct WalkOutcome {
  bool delivered = false;
  /// Nodes traversed, src first; ends with dst iff delivered.
  std::vector<net::NodeId> path;
};

class BackupSequences {
 public:
  BackupSequences(std::uint16_t node_count, net::NetworkId prefer_network);

  std::uint16_t node_count() const { return node_count_; }
  net::NetworkId prefer_network() const { return prefer_network_; }

  /// The ordered arc list for src -> dst (src != dst).
  const std::vector<BackupArc>& arcs(net::NodeId src, net::NodeId dst) const;

  /// Whether both endpoint NICs of the direct link a -> b over network k
  /// survive `failed` (the shared backplane is checked by the callers, who
  /// know the node count). `failed` must be sorted ascending
  /// (ClusterNetwork::failed_components order).
  static bool link_up(net::NodeId a, net::NodeId b, net::NetworkId network,
                      const std::vector<net::ComponentIndex>& failed);

  /// First usable network for the direct link a -> b under `failed`, in
  /// (prefer, other) order; net::kNetworksPerHost when none survives.
  net::NetworkId first_usable_network(
      net::NodeId a, net::NodeId b,
      const std::vector<net::ComponentIndex>& failed) const;

  /// Simulates a data-plane traversal src -> dst under `failed` (sorted),
  /// with full failure visibility at every hop: at each node the first
  /// usable arc of its sequence is taken. Relay arcs are taken only when
  /// the relay also has a usable direct link to dst, which bounds every
  /// delivered path to at most one intermediate node and makes the walk
  /// loop-free by construction.
  WalkOutcome walk(net::NodeId src, net::NodeId dst,
                   const std::vector<net::ComponentIndex>& failed) const;

 private:
  std::size_t pair_index(net::NodeId src, net::NodeId dst) const {
    return static_cast<std::size_t>(src) * node_count_ + dst;
  }

  std::uint16_t node_count_;
  net::NetworkId prefer_network_;
  std::vector<std::vector<BackupArc>> sequences_;  // indexed by pair_index
};

/// Installs /32 policy-origin routes on `node`'s table so its forwarding
/// follows the first usable arc of its sequence to every destination under
/// `failed` (sorted ascending) — the routing-table image of walk(). Both
/// precomputed policies resolve through this; they differ only in *when*
/// and at what cost `failed` is learned.
void install_backup_routes(const BackupSequences& sequences,
                           net::ClusterNetwork& network, net::NodeId node,
                           const std::vector<net::ComponentIndex>& failed);

}  // namespace drs::policy
