// OSPF-lite: the paper's second named "traditional routing" representative
// (RFC 1583 is cited alongside RIP).
//
// A minimal link-state protocol shaped like OSPF on a two-bus LAN:
//   - periodic HELLOs per interface build neighbor adjacencies; a neighbor
//     not heard within dead_interval is dropped (reactive detection — with
//     RFC defaults that is 40 s, vs DRS's sub-second probing);
//   - each node floods a router-LSA (its adjacency bitmasks, sequence
//     numbered) when its neighbor set changes and periodically as refresh;
//   - every node computes routes from the link-state database: an edge
//     counts only when BOTH endpoints advertise it (bidirectionality check),
//     destinations reachable via the other network or a one-hop relay get
//     /32 routes, exactly comparable with the DRS repertoire.
//
// Deliberately omitted OSPF machinery (areas, DR election, LSA aging wars,
// checksums): none of it changes the property under study — failure response
// time driven by the dead interval.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/host.hpp"
#include "net/network.hpp"
#include "sim/timer.hpp"

namespace drs::reactive {

struct OspfConfig {
  util::Duration hello_interval = util::Duration::seconds(10);  // RFC default
  util::Duration dead_interval = util::Duration::seconds(40);   // 4x hello
  /// Periodic LSA refresh (and implicit max-age for stale entries).
  util::Duration lsa_refresh = util::Duration::seconds(30);

  /// DrsConfig::validate() shaped: nullopt when consistent, otherwise a
  /// human-readable complaint (the policy registry rejects construction).
  [[nodiscard]] std::optional<std::string> validate() const {
    if (hello_interval <= util::Duration::zero()) {
      return "ospf.hello_interval must be positive";
    }
    if (dead_interval <= hello_interval) {
      return "ospf.dead_interval must exceed ospf.hello_interval "
             "(adjacencies would flap between hellos)";
    }
    if (lsa_refresh <= util::Duration::zero()) {
      return "ospf.lsa_refresh must be positive";
    }
    return std::nullopt;
  }
};

struct OspfHello final : net::Payload {
  static constexpr net::PayloadKind kKind = net::PayloadKind::kOspfHello;
  OspfHello() : net::Payload(kKind) {}

  net::NodeId advertiser = 0;
  std::uint32_t wire_size() const override { return 44; }  // RFC 2328 sizing
};

/// Router-LSA: the originator's live adjacencies as one bitmask per network
/// (supports clusters up to 64 nodes, matching the paper's evaluation range).
struct OspfLsa final : net::Payload {
  static constexpr net::PayloadKind kKind = net::PayloadKind::kOspfLsa;
  OspfLsa() : net::Payload(kKind) {}

  net::NodeId origin = 0;
  std::uint32_t sequence = 0;
  std::array<std::uint64_t, net::kNetworksPerHost> neighbors{};
  std::uint32_t wire_size() const override { return 20 + 16; }
};

class OspfDaemon {
 public:
  OspfDaemon(net::Host& host, std::uint16_t node_count, OspfConfig config);
  ~OspfDaemon();
  OspfDaemon(const OspfDaemon&) = delete;
  OspfDaemon& operator=(const OspfDaemon&) = delete;

  void start();
  void stop();

  struct Metrics {
    std::uint64_t hellos_sent = 0;
    std::uint64_t hellos_received = 0;
    std::uint64_t lsas_originated = 0;
    std::uint64_t lsas_flooded = 0;    // re-broadcast of received LSAs
    std::uint64_t neighbors_lost = 0;  // dead-interval expirations
    std::uint64_t spf_runs = 0;
  };
  const Metrics& metrics() const { return metrics_; }

  /// This node's live adjacency to `peer` on `network` (hello-driven).
  bool adjacent(net::NodeId peer, net::NetworkId network) const;
  std::size_t lsdb_size() const { return lsdb_.size(); }

 private:
  struct LsdbEntry {
    std::uint32_t sequence = 0;
    std::array<std::uint64_t, net::kNetworksPerHost> neighbors{};
    util::SimTime updated;
  };

  void send_hello();
  void sweep_neighbors();
  void originate_lsa();
  void recompute_routes();
  void on_packet(const net::Packet& packet, net::NetworkId in_ifindex);
  bool edge(net::NodeId u, net::NodeId v, net::NetworkId network) const;

  net::Host& host_;
  std::uint16_t node_count_;
  OspfConfig config_;
  /// last_heard_[peer * 2 + network]; zero time = never.
  std::vector<util::SimTime> last_heard_;
  std::array<std::uint64_t, net::kNetworksPerHost> my_neighbors_{};
  std::map<net::NodeId, LsdbEntry> lsdb_;
  std::uint32_t my_sequence_ = 0;
  sim::PeriodicTimer hello_timer_;
  sim::PeriodicTimer refresh_timer_;
  Metrics metrics_;
};

class OspfSystem {
 public:
  OspfSystem(net::ClusterNetwork& network, OspfConfig config);
  void start();
  void stop();
  OspfDaemon& daemon(net::NodeId node) { return *daemons_.at(node); }

 private:
  std::vector<std::unique_ptr<OspfDaemon>> daemons_;
};

}  // namespace drs::reactive
