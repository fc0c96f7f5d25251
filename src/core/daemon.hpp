// The DRS daemon: one per host, implementing the paper's two-phase run
// process.
//
// Phase 1 (monitoring): each cycle, send an ICMP echo to every monitored
// peer on every network, pinned to the corresponding interface. Probe
// verdicts drive a per-(peer, network) link-state machine.
//
// Phase 2 (answering requests and fixing problems): react to link verdicts
// by re-routing *before applications notice*:
//   - one direct link down        -> pin the peer's addresses to the other
//                                    network (point-to-point /32 detour);
//   - both direct links down      -> broadcast ROUTE_DISCOVER; any node with
//                                    working links to both parties answers
//                                    ROUTE_OFFER; lease forwarding state on
//                                    the chosen relay with ROUTE_SET;
//   - links heal                  -> tear the detour down and fall back to
//                                    plain subnet routing.
//
// Loop avoidance: a node only ever offers to relay using its *direct* links
// (never through a detour of its own), and detour routes always point one
// hop away, so forwarded traffic traverses at most one intermediate node.
// This is the invariant the paper's reference [1] proves; tests assert it by
// checking that TTLs never drop more than two hops' worth.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/link_state.hpp"
#include "core/messages.hpp"
#include "core/metrics.hpp"
#include "core/peer_table.hpp"
#include "net/host.hpp"
#include "proto/icmp.hpp"
#include "sim/timer.hpp"
#include "util/flat_map.hpp"

namespace drs::core {

class DrsDaemon;

/// Shared probe-timeout scanner for the batched sweep path (one per
/// DrsSystem; a standalone daemon lazily owns a private one).
///
/// Unmanaged sweep probes have no per-probe timeout event. Instead the
/// sweeper keeps one flat record per sent probe — deadline, covering
/// (daemon, table entry), and a queue rank claimed at the send instant —
/// plus a single pending scan event armed at the earliest live deadline
/// *under that record's claimed rank*. Each firing expires exactly one due
/// probe and re-arms from the next live record (possibly at the same
/// instant), so every expiry pops at precisely the (time, sequence)
/// coordinate the legacy per-probe timeout event occupied; the differential
/// corpus (tests/test_probe_differential.cpp) pins this byte-for-byte.
/// Records of replied or re-sent probes go stale in place and are dropped
/// lazily as the scan walks past them, so the healthy steady state is one
/// firing per deadline cohort and O(1) amortized work per probe.
class ProbeTimeoutSweeper {
 public:
  explicit ProbeTimeoutSweeper(sim::Simulator& sim) : sim_(sim) {}

  /// Called at each probe send, before the echo frame is pushed (the
  /// position where the legacy scheduler pushed its managed timeout event):
  /// claims this probe's rank and keeps the scan armed at a time <= the
  /// earliest live deadline.
  void note_deadline(DrsDaemon& daemon, std::uint32_t entry,
                     std::int64_t deadline_ns);

  /// Pre-sizes the record ring (records live for roughly one probe timeout).
  void reserve(std::size_t records) { records_.reserve(records); }

  /// Drops the scan and every record; callers stop covered daemons first.
  void cancel();

 private:
  struct Record {
    std::int64_t deadline_ns;
    std::uint64_t rank;  // claimed at the send; the scan fires under it
    DrsDaemon* daemon;
    std::uint32_t entry;
  };

  /// Whether the record still names an outstanding probe with this deadline
  /// (replies and re-sends both retire it).
  bool live(const Record& r) const;
  void fire();
  void arm(std::int64_t deadline_ns, std::uint64_t rank);

  sim::Simulator& sim_;
  std::vector<Record> records_;  // insertion = send = rank order
  std::size_t head_ = 0;         // records_[0, head_) already consumed
  sim::EventHandle scan_;
  std::int64_t scan_at_ns_ = 0;
  /// Fixed timeouts insert deadlines in non-decreasing order, so the first
  /// live record from head_ is the earliest. Adaptive timeouts can violate
  /// that; the scan then falls back to a full min-search (still correct,
  /// just not O(1) amortized).
  bool monotone_ = true;
  std::int64_t last_deadline_ns_ = std::numeric_limits<std::int64_t>::min();
};

class DrsDaemon {
 public:
  /// `node_count` defines the monitored peer set: all cluster nodes but this
  /// one (the deployed daemons were "configured to monitor hosts on the
  /// networks" — in these clusters, all of them).
  /// `sweeper` is the shared probe-timeout scanner (DrsSystem passes its
  /// own); it must outlive the daemon.
  DrsDaemon(net::Host& host, proto::IcmpService& icmp, std::uint16_t node_count,
            DrsConfig config, ProbeTimeoutSweeper& sweeper);
  ~DrsDaemon();
  DrsDaemon(const DrsDaemon&) = delete;
  DrsDaemon& operator=(const DrsDaemon&) = delete;

  void start();
  void stop();
  bool running() const { return cycle_timer_.running(); }

  net::NodeId self() const { return host_.id(); }
  const DrsConfig& config() const { return config_; }
  const LinkStateTable& links() const { return links_; }
  const DaemonMetrics& metrics() const { return metrics_; }

  /// Whether this daemon probes (and therefore has link state for) `peer`.
  /// O(1) bitmap: every RouteDiscover broadcast any node sends is checked
  /// against this on every other node, so under a control storm it runs once
  /// per received control frame.
  bool monitors(net::NodeId peer) const {
    return peer < monitored_.size() && monitored_[peer] != 0;
  }
  std::size_t monitored_count() const { return peers_.size(); }

  /// The SoA probe fabric (sweep order, outstanding probes, verdict bits).
  /// Read-only outside the daemon; tests introspect generations through it.
  const PeerTable& peer_table() const { return table_; }

  PeerRouteMode peer_mode(net::NodeId peer) const;
  std::optional<net::NodeId> relay_for(net::NodeId peer) const;
  /// Relay-side leases currently held on this node.
  std::size_t active_leases() const { return leases_.size(); }
  /// True when this node carries no DRS-installed routes (pure subnet
  /// routing) — the steady state of a healthy cluster.
  bool host_routes_empty() const;

  /// Management plane: a remote daemon's health snapshot, fetched over the
  /// same control channel (and therefore over whatever detours are in
  /// force — a queryable node is by definition a reachable one).
  struct RemoteStatus {
    net::NodeId node = 0;
    std::uint16_t links_down = 0;
    std::uint16_t detours = 0;
    std::uint16_t leases_held = 0;
    util::Duration rtt = util::Duration::zero();
  };
  using StatusCallback = std::function<void(const std::optional<RemoteStatus>&)>;
  /// Sends a STATUS_REQUEST to `peer`; the callback fires exactly once with
  /// the reply or, after `timeout`, with nullopt.
  void query_peer_status(net::NodeId peer, util::Duration timeout,
                         StatusCallback done);

  /// The snapshot this daemon would report about itself.
  RemoteStatus local_status() const;

 private:
  friend class ProbeTimeoutSweeper;

  struct PeerState {
    PeerRouteMode mode = PeerRouteMode::kDirect;
    net::NodeId relay = 0;
    net::NetworkId relay_network = 0;
    bool discovering = false;
    /// This discovery round only refreshes the standby; do not switch modes.
    bool discovery_for_standby = false;
    std::uint32_t path_probe_failures = 0;
    std::uint64_t request_id = 0;
    sim::EventHandle discover_timer;
    /// Warm-standby relay candidate (config.warm_standby).
    bool standby_valid = false;
    net::NodeId standby_relay = 0;
    net::NetworkId standby_network = 0;
    struct Offer {
      net::NodeId relay;
      net::NetworkId network;  // where the offer arrived
      net::Ipv4Addr relay_addr;
    };
    std::vector<Offer> offers;
  };

  struct LeaseKey {
    net::NodeId requester;
    net::NodeId target;
    auto operator<=>(const LeaseKey&) const = default;
  };
  struct Lease {
    util::SimTime expires;
  };

  void on_cycle();
  void schedule_cycle_probes_legacy();
  void schedule_cycle_probes_batched();
  void send_probe(net::NodeId peer, net::NetworkId network);
  /// Batched sweep: sends `table_` entry probes [sweep_pos_, ...) that share
  /// the current instant's spread offset, then re-arms the cursor for the
  /// next distinct offset. Send times and ordering are byte-identical to the
  /// legacy per-event schedule (tests/test_probe_differential.cpp).
  void run_sweep();
  void send_entry_probe(std::uint32_t entry);
  /// Reply hook for raw sweep probes (IcmpService::set_probe_reply_hook):
  /// resolves seq -> table entry, records the success, and returns true iff
  /// the seq named a live sweep probe (managed pings fall through).
  bool on_raw_probe_reply(std::uint16_t seq);
  /// Sweeper expiry for a raw sweep probe: the kPingLost/timed-out
  /// bookkeeping plus the failure verdict, mirroring the legacy managed
  /// timeout path event for event.
  void expire_entry(std::uint32_t entry);
  void on_probe_result(net::NodeId peer, net::NetworkId network,
                       const proto::PingResult& result);
  /// Current per-probe timeout: fixed, or RTT-derived when adaptive.
  util::Duration probe_timeout_for(net::NetworkId network) const;
  void update_rtt(net::NetworkId network, util::Duration rtt);
  void recompute_peer(net::NodeId peer);
  void set_mode(net::NodeId peer, PeerRouteMode mode, net::NodeId relay = 0,
                net::NetworkId relay_network = 0);
  void start_discovery(net::NodeId peer, bool for_standby = false);
  void finish_discovery(net::NodeId peer);
  void send_path_probe(net::NodeId peer);
  void refresh_relay_lease(net::NodeId peer);
  void sweep_leases();
  void sync_routes();

  void on_control(const net::Packet& packet, net::NetworkId in_ifindex);
  void handle_discover(const DrsControlPayload& msg, const net::Packet& packet,
                       net::NetworkId in_ifindex);
  void handle_offer(const DrsControlPayload& msg, const net::Packet& packet,
                    net::NetworkId in_ifindex);
  void handle_route_set(const DrsControlPayload& msg, const net::Packet& packet,
                        net::NetworkId in_ifindex);
  void handle_teardown(const DrsControlPayload& msg);
  void handle_status_request(const DrsControlPayload& msg, const net::Packet& packet,
                             net::NetworkId in_ifindex);
  void handle_status_reply(const DrsControlPayload& msg);

  void send_control(DrsMessageType type, net::NodeId target_node,
                    std::uint64_t request_id, net::NodeId relay,
                    net::NetworkId via, net::Ipv4Addr dst);
  void broadcast_control(DrsMessageType type, net::NodeId target_node,
                         std::uint64_t request_id);

  net::Host& host_;
  proto::IcmpService& icmp_;
  std::uint16_t node_count_;
  DrsConfig config_;
  LinkStateTable links_;
  DaemonMetrics metrics_;
  std::map<net::NodeId, PeerState> peers_;
  /// Mirror of peers_' key set, indexed by node id; written only at
  /// construction (the monitored set is fixed for a daemon's lifetime).
  std::vector<std::uint8_t> monitored_;
  std::map<LeaseKey, Lease> leases_;
  sim::PeriodicTimer cycle_timer_;
  /// Path probes and (in legacy mode) sweep probes awaiting a verdict; kept
  /// so stop() can cancel their callbacks. Batched sweep probes live in
  /// table_ instead.
  util::FlatSet<std::uint16_t> outstanding_probes_;
  std::vector<sim::EventHandle> pending_probe_sends_;
  /// Batched-sweep state (unused under kLegacyPerPeer).
  PeerTable table_;
  /// Raw-probe correlation: in-flight sweep seq -> table entry. At most one
  /// probe per entry is outstanding (the sweeper expires before the next
  /// cycle re-sends), so well under 65536 live seqs — wraparound never
  /// collides.
  util::FlatMap<std::uint16_t, std::uint32_t> probe_seq_;
  /// Send instants for in-flight sweep probes, indexed by table entry (the
  /// RTT lane the outstanding table carried for managed pings).
  std::vector<std::int64_t> sent_ns_;
  sim::EventHandle sweep_cursor_;
  std::uint32_t sweep_pos_ = 0;
  /// The cursor's claimed queue rank for the current cycle: claimed at the
  /// tick (where legacy pushed its whole send-event block) and reused for
  /// every spread-offset re-push, so cursor firings tie-break against
  /// foreign same-instant events exactly like the legacy send events did.
  std::uint64_t sweep_rank_ = 0;
  ProbeTimeoutSweeper& sweeper_;
  /// Peers whose route mode != kDirect; lets the per-tick phase-2 walk over
  /// peers_ be skipped entirely in the healthy steady state.
  std::uint32_t nondirect_peers_ = 0;
  std::uint32_t next_request_seq_ = 1;
  /// Per-network RTT estimators (seconds) for the adaptive probe timeout.
  std::array<double, net::kNetworksPerHost> srtt_{};
  std::array<double, net::kNetworksPerHost> rttvar_{};

  struct PendingStatusQuery {
    StatusCallback done;
    util::SimTime sent_at;
    sim::EventHandle timeout;
  };
  std::map<std::uint64_t, PendingStatusQuery> status_queries_;
};

}  // namespace drs::core
