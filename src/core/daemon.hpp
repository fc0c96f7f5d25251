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
#include <cassert>
#include <cstdint>
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

/// The probe sweep's scheduler: one per DrsSystem (bare daemons share one
/// their owner provides). It schedules every sweep send and every sweep
/// timeout of the daemons it serves, each kind through a single armed queue
/// event, and both pop at the (time, sequence) coordinates per-probe events
/// would hold; tests/golden/probe_corpus.txt pins that order.
///
/// Sends. A daemon's sweep cursor is its cycle's next spread offset, under a
/// queue rank the daemon claimed at its tick (where per-probe send events
/// would be pushed). The scheduler keeps every cursor in a ring sorted on
/// (time, rank) and one event armed at the earliest, under that cursor's
/// rank. A firing runs that daemon's sweep step, then keeps running the next
/// cursor inline while it is due at the same instant and precedes
/// Simulator::peek_next()'s (time, key); otherwise it re-arms. The peek
/// covers both the event queue and the armed heads of the simulator's
/// sorted sources, so a frame delivery due between two cursors' ranks (a
/// backplane ring's head, not a queue event) still runs between them. So
/// daemons that share a tick (a DrsSystem's, started together) cost one
/// event per distinct spread offset, not one per daemon. Cursors of stopped
/// or restarted daemons go stale in place and are skipped at the head.
///
/// Both kinds stay queue events rather than sorted sources: moved onto
/// sources, they made fleet27 slower (docs/PERFORMANCE.md §2b).
///
/// Timeouts. Sweep probes have no per-probe timeout event. Instead the
/// scheduler keeps one flat record per sent probe — deadline, covering
/// (daemon, table entry), and a queue rank claimed at the send instant —
/// plus a single pending scan event armed at the earliest live deadline
/// *under that record's claimed rank*. Each firing expires exactly one due
/// probe and re-arms from the next live record (possibly at the same
/// instant). Records sit in a ring sorted on deadline, ties in send order:
/// fixed timeouts append, and an adaptive timeout shorter than an earlier
/// probe's lands mid-ring. Records of replied or re-sent probes go stale in
/// place and are dropped as the scan passes them, so the healthy steady state
/// is one firing per deadline cohort and O(1) amortized work per probe.
class ProbeScheduler {
 public:
  explicit ProbeScheduler(sim::Simulator& sim) : sim_(sim) {}
  // Its armed events capture `this`.
  ProbeScheduler(const ProbeScheduler&) = delete;
  ProbeScheduler& operator=(const ProbeScheduler&) = delete;

  /// Called at each spread cycle's tick with the cycle's first cursor: the
  /// tick instant and the rank claimed there. Re-arms the send event when
  /// this cursor is now the earliest.
  void schedule_send(DrsDaemon& daemon, std::int64_t at_ns, std::uint64_t rank);

  /// Called at each probe send, before the echo frame is pushed: claims this
  /// probe's rank and keeps the scan armed at a time <= the earliest live
  /// deadline.
  void note_deadline(DrsDaemon& daemon, std::uint32_t entry,
                     std::int64_t deadline_ns);

  /// Pre-sizes the cursor ring (about two per daemon, with the consumed
  /// prefix) and the record ring (records live for roughly one probe
  /// timeout).
  void reserve(std::size_t cursors, std::size_t records) {
    cursors_.reserve(cursors);
    records_.reserve(records);
  }

  /// Cursors held, live, stale or consumed but not yet dropped; bounded by
  /// about twice the number of daemons once traffic is steady.
  std::size_t cursor_count() const { return cursors_.size(); }
  /// Records held, live or not yet dropped; bounded by the in-flight probe
  /// window once traffic is steady.
  std::size_t record_count() const { return records_.size(); }

  /// Drops both events, every cursor and every record; callers stop covered
  /// daemons first.
  void cancel();

 private:
  struct Cursor {
    std::int64_t at_ns;
    std::uint64_t rank;  // claimed at the daemon's tick; sends fire under it
    DrsDaemon* daemon;
  };
  struct Record {
    std::int64_t deadline_ns;
    std::uint64_t rank;  // claimed at the send; the scan fires under it
    DrsDaemon* daemon;
    std::uint32_t entry;
  };

  static bool before(const Cursor& a, const Cursor& b) {
    return a.at_ns < b.at_ns || (a.at_ns == b.at_ns && a.rank < b.rank);
  }
  /// Deadline alone: a new record goes after its ties, so ties expire in send order.
  static bool before(const Record& a, const Record& b) { return a.deadline_ns < b.deadline_ns; }
  /// Adds `item` to `ring`'s unconsumed part [head, end), kept sorted by
  /// before() (util::insert_sorted).
  template <class T>
  static void insert_sorted(std::vector<T>& ring, std::size_t head, const T& item);
  /// Whether the cursor is still its daemon's current one (a stop or a new
  /// tick retires it).
  bool live(const Cursor& c) const;
  /// Whether the record still names an outstanding probe with this deadline
  /// (replies and re-sends both retire it).
  bool live(const Record& r) const;
  /// Whether a cursor due now may run inside the current firing: it must
  /// precede every pending event and armed source head, as its own event
  /// would.
  bool precedes_queue(const Cursor& c) const;
  void fire_sends();
  void fire_timeouts();
  void arm_send(const Cursor& c);
  void arm_timeout(std::int64_t deadline_ns, std::uint64_t rank);

  sim::Simulator& sim_;
  std::vector<Cursor> cursors_;   // sorted on (time, rank)
  std::size_t cursor_head_ = 0;   // cursors_[0, cursor_head_) already consumed
  sim::EventHandle send_;
  Cursor armed_{};                // the cursor send_ is armed at, while pending
  std::vector<Record> records_;   // sorted on deadline, ties in send order
  std::size_t record_head_ = 0;   // records_[0, record_head_) already consumed
  sim::EventHandle scan_;
  std::int64_t scan_at_ns_ = 0;
};

class DrsDaemon {
 public:
  /// `node_count` defines the monitored peer set: all cluster nodes but this
  /// one (the deployed daemons were "configured to monitor hosts on the
  /// networks" — in these clusters, all of them).
  /// `scheduler` is the shared probe scheduler (DrsSystem passes its own);
  /// it must outlive the daemon.
  DrsDaemon(net::Host& host, proto::IcmpService& icmp, std::uint16_t node_count,
            DrsConfig config, ProbeScheduler& scheduler);
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
  /// One array read: every RouteDiscover broadcast any node sends is checked
  /// against this on every other node, so under a control storm it runs once
  /// per received control frame.
  bool monitors(net::NodeId peer) const {
    return peer < slot_of_.size() && slot_of_[peer] != kNoSlot;
  }
  std::size_t monitored_count() const { return peers_.size(); }

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
  friend class ProbeScheduler;

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

  /// slot_of_ value of an id this daemon does not monitor.
  static constexpr std::uint16_t kNoSlot = 0xFFFF;

  /// The lane entry of `peer`, which the caller knows is monitored: a table
  /// entry's peer, or one monitors() accepted.
  PeerState& peer_state(net::NodeId peer) {
    assert(monitors(peer));
    return peers_[slot_of_[peer]];
  }
  /// Null when `peer` is not monitored.
  const PeerState* find_peer(net::NodeId peer) const {
    return monitors(peer) ? &peers_[slot_of_[peer]] : nullptr;
  }

  struct LeaseKey {
    net::NodeId requester;
    net::NodeId target;
    auto operator<=>(const LeaseKey&) const = default;
  };
  struct Lease {
    util::SimTime expires;
  };

  /// run_sweep()'s answer once the cycle's last entry has been sent.
  static constexpr std::int64_t kSweepDone = -1;

  void on_cycle();
  /// Sends `table_` entry probes [sweep_pos_, ...) that share the current
  /// instant's spread offset and returns the instant of the next distinct
  /// offset, or kSweepDone (tests/golden/probe_corpus.txt pins send times
  /// and order).
  std::int64_t run_sweep();
  void send_entry_probe(std::uint32_t entry);
  /// Reply hook for raw sweep probes (IcmpService::set_probe_reply_hook):
  /// resolves seq -> table entry, records the success, and returns true iff
  /// the seq named a live sweep probe (managed pings fall through).
  bool on_raw_probe_reply(std::uint16_t seq);
  /// Scheduler expiry for a raw sweep probe: the kPingLost/timed-out
  /// bookkeeping, then the failure verdict — the order a managed ping's
  /// timeout would produce.
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
  /// The sweep's hot state. The monitored set is fixed for the daemon's
  /// lifetime, in ascending peer id order.
  PeerTable table_;
  /// The cold repair state, one entry per table_ slot (so also ascending).
  std::vector<PeerState> peers_;
  /// Node id -> slot in table_ and peers_, kNoSlot when not monitored.
  std::vector<std::uint16_t> slot_of_;
  std::map<LeaseKey, Lease> leases_;
  sim::PeriodicTimer cycle_timer_;
  /// Path probes awaiting a verdict; kept so stop() can cancel their
  /// callbacks. Sweep probes live in table_ instead.
  util::FlatSet<std::uint16_t> outstanding_probes_;
  /// Raw-probe correlation: in-flight sweep seq -> table entry. At most one
  /// probe per entry is outstanding (the scheduler expires before the next
  /// cycle re-sends), so well under 65536 live seqs — wraparound never
  /// collides.
  util::FlatMap<std::uint16_t, std::uint32_t> probe_seq_;
  std::uint32_t sweep_pos_ = 0;
  /// The cursor's queue rank for the current cycle: claimed at the tick and
  /// used at every spread offset, so each send tie-breaks against foreign
  /// same-instant events as a send event pushed at the tick would. 0 (never
  /// a claimed rank) while stopped; a cursor under any other rank is stale.
  std::uint64_t sweep_rank_ = 0;
  ProbeScheduler& scheduler_;
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
