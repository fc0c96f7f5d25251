#include "core/daemon.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/macros.hpp"
#include "util/arena.hpp"
#include "util/log.hpp"
#include "util/sorted_ring.hpp"

namespace drs::core {

using net::NetworkId;
using net::NodeId;

namespace {

/// The peers a daemon monitors, ascending (the sweep order): the configured
/// list, or else every cluster node, minus self, duplicates and ids outside
/// the cluster.
std::vector<NodeId> monitored_peer_ids(NodeId self, std::uint16_t node_count,
                                       const DrsConfig& config) {
  std::vector<NodeId> ids;
  if (config.monitored_peers) {
    ids = *config.monitored_peers;
    std::erase_if(ids, [&](NodeId p) { return p == self || p >= node_count; });
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  } else {
    ids.reserve(node_count);
    for (NodeId peer = 0; peer < node_count; ++peer) {
      if (peer != self) ids.push_back(peer);
    }
  }
  return ids;
}

}  // namespace

bool ProbeScheduler::live(const Cursor& c) const {
  return c.daemon->sweep_rank_ == c.rank;
}

bool ProbeScheduler::live(const Record& r) const {
  const PeerTable& table = r.daemon->table_;
  return table.outstanding(r.entry) &&
         table.deadline_ns(r.entry) == r.deadline_ns;
}

template <class T>
void ProbeScheduler::insert_sorted(std::vector<T>& ring, std::size_t head, const T& item) {
  util::insert_sorted(ring, head, item,
                      [](const T& a, const T& b) { return before(a, b); });
}

void ProbeScheduler::schedule_send(DrsDaemon& daemon, std::int64_t at_ns,
                                   std::uint64_t rank) {
  // Daemons that share a tick register in rank order at every offset, so
  // their cursors append; a daemon on its own tick (restarted, or with its
  // own entry count) lands mid-ring.
  const Cursor c{at_ns, rank, &daemon};
  insert_sorted(cursors_, cursor_head_, c);
  if (!send_.pending() || before(c, armed_)) arm_send(c);
}

void ProbeScheduler::arm_send(const Cursor& c) {
  send_.cancel();
  armed_ = c;
  send_ = sim_.schedule_at_ranked(util::SimTime::from_ns(c.at_ns),
                                  [this] { fire_sends(); }, c.rank);
}

bool ProbeScheduler::precedes_queue(const Cursor& c) const {
  std::int64_t t_ns = 0;
  std::uint64_t key = 0;
  if (!sim_.peek_next(t_ns, key)) return true;
  return c.at_ns < t_ns || (c.at_ns == t_ns && c.rank < key);
}

void ProbeScheduler::fire_sends() {
  const std::int64_t now = sim_.now().ns();
  for (;;) {
    while (cursor_head_ < cursors_.size() && !live(cursors_[cursor_head_])) {
      ++cursor_head_;
    }
    if (cursor_head_ == cursors_.size()) {
      cursors_.clear();
      cursor_head_ = 0;
      return;
    }
    const Cursor c = cursors_[cursor_head_];
    // The cursor this event was armed at always passes (nothing pending can
    // precede the event just popped); each further one runs inline only
    // where its own event would have popped next, so a discovery timer or
    // a foreign entity's event due between two ranks still runs between
    // them.
    if (c.at_ns != now || !precedes_queue(c)) {
      arm_send(c);
      return;
    }
    ++cursor_head_;
    // Drop the consumed prefix once it outweighs the rest: amortized O(1)
    // moves per cursor, and the ring stays within about twice its live size.
    if (cursor_head_ * 2 >= cursors_.size()) {
      cursors_.erase(cursors_.begin(),
                     cursors_.begin() +
                         static_cast<std::ptrdiff_t>(cursor_head_));
      cursor_head_ = 0;
    }
    const std::int64_t next = c.daemon->run_sweep();
    if (next != DrsDaemon::kSweepDone) {
      insert_sorted(cursors_, cursor_head_, Cursor{next, c.rank, c.daemon});
    }
  }
}

void ProbeScheduler::note_deadline(DrsDaemon& daemon, std::uint32_t entry,
                                   std::int64_t deadline_ns) {
  // One record — and one claimed rank — per probe, as if a timeout event
  // were pushed right here. The rank is spent when the scan is armed at this
  // record's deadline, so the scan pops in that event's queue position.
  const std::uint64_t rank = sim_.claim_event_rank();
  insert_sorted(records_, record_head_,
                Record{deadline_ns, rank, &daemon, entry});
  // An already-pending earlier scan covers this deadline (it re-arms itself
  // forward when it fires); with fixed timeouts that is every non-idle send.
  if (!scan_.pending() || deadline_ns < scan_at_ns_) {
    arm_timeout(deadline_ns, rank);
  }
}

void ProbeScheduler::arm_timeout(std::int64_t deadline_ns, std::uint64_t rank) {
  scan_.cancel();
  scan_at_ns_ = deadline_ns;
  scan_ = sim_.schedule_at_ranked(util::SimTime::from_ns(deadline_ns),
                                  [this] { fire_timeouts(); }, rank);
}

void ProbeScheduler::cancel() {
  send_.cancel();
  cursors_.clear();
  cursor_head_ = 0;
  scan_.cancel();
  records_.clear();
  record_head_ = 0;
}

void ProbeScheduler::fire_timeouts() {
  const std::int64_t now = sim_.now().ns();
  // The ring is sorted on deadline, ties in send order, so the first live
  // record from record_head_ is the one to expire next. A stale record never turns live again,
  // because the next send on its entry always carries a later deadline.
  const auto earliest_live = [this] {
    while (record_head_ < records_.size() && !live(records_[record_head_])) {
      ++record_head_;
    }
    return record_head_;
  };

  if (earliest_live() < records_.size() &&
      records_[record_head_].deadline_ns <= now) {
    // Exactly one expiry per firing: the re-arm below uses the *next*
    // record's claimed rank (often at this same instant), so every expiry
    // pops in its own probe's queue position. expire_entry() emits the
    // kPingLost trace and timed-out counter, then the failure verdict.
    const Record r = records_[record_head_++];
    r.daemon->expire_entry(r.entry);
  }

  const std::size_t next = earliest_live();
  if (next < records_.size()) {
    arm_timeout(records_[next].deadline_ns, records_[next].rank);
  } else {
    // Idle and fully consumed: reclaim the ring in one go (the healthy
    // steady state — every probe replied before its deadline).
    records_.clear();
    record_head_ = 0;
  }
  // Bound the consumed prefix under sustained loss, amortized O(1)/record.
  if (record_head_ >= 4096 && record_head_ * 2 >= records_.size()) {
    records_.erase(records_.begin(),
                   records_.begin() +
                       static_cast<std::ptrdiff_t>(record_head_));
    record_head_ = 0;
  }
}

DrsDaemon::DrsDaemon(net::Host& host, proto::IcmpService& icmp,
                     std::uint16_t node_count, DrsConfig config,
                     ProbeScheduler& scheduler)
    : host_(host),
      icmp_(icmp),
      node_count_(node_count),
      config_(config),
      links_(host.id(), node_count,
             LinkPolicy{config.failures_to_down, config.successes_to_up,
                        config.flap_threshold, config.flap_window,
                        config.flap_hold}),
      table_(monitored_peer_ids(host.id(), node_count, config)),
      peers_(table_.peer_count()),
      slot_of_(node_count, kNoSlot),
      cycle_timer_(host.simulator(), config.probe_interval, [this] { on_cycle(); }),
      scheduler_(scheduler) {
  for (std::uint32_t slot = 0; slot < table_.peer_count(); ++slot) {
    slot_of_[table_.peer(slot)] = static_cast<std::uint16_t>(slot);
  }
  // probe_timeout < probe_interval (DrsConfig::validate), so each entry has
  // at most one sweep probe in flight.
  probe_seq_.reserve(table_.entry_count());
  icmp_.set_probe_reply_hook(
      [this](std::uint16_t seq) { return on_raw_probe_reply(seq); });
  host_.register_handler(net::Protocol::kDrsControl,
                         [this](const net::Packet& p, NetworkId in_if) {
                           on_control(p, in_if);
                         });
}

DrsDaemon::~DrsDaemon() { stop(); }

void DrsDaemon::start() {
  if (cycle_timer_.running()) return;
  // Latch the simulator's trace sink (the harness attaches it before
  // starting the system); the link-state machine emits transitions itself.
  links_.set_tracer(host_.simulator().tracer());
  cycle_timer_.start();
}

void DrsDaemon::stop() {
  cycle_timer_.stop();
  outstanding_probes_.for_each([this](std::uint16_t seq) { icmp_.cancel(seq); });
  outstanding_probes_.clear();
  // The shared scheduler keeps running for its other daemons. Without a
  // rank this daemon's cursor is stale, and with all of its probes cancelled
  // below the timeout scan finds nothing due here.
  sweep_rank_ = 0;
  // Sweep probes are raw (no IcmpService state): dropping the correlation
  // map and deadlines is the whole cancellation.
  probe_seq_.clear();
  for (std::uint32_t e = 0; e < table_.entry_count(); ++e) {
    if (table_.outstanding(e)) table_.clear_outstanding(e);
  }
  for (PeerState& state : peers_) state.discover_timer.cancel();
  // Pending management queries are dropped without a callback: the caller
  // stopped the daemon, so there is no meaningful answer to deliver.
  for (auto& [id, query] : status_queries_) query.timeout.cancel();
  status_queries_.clear();
}

PeerRouteMode DrsDaemon::peer_mode(NodeId peer) const {
  const PeerState* state = find_peer(peer);
  return state == nullptr ? PeerRouteMode::kDirect : state->mode;
}

DrsDaemon::RemoteStatus DrsDaemon::local_status() const {
  RemoteStatus status;
  status.node = self();
  status.links_down = static_cast<std::uint16_t>(links_.down_count());
  status.detours = static_cast<std::uint16_t>(nondirect_peers_);
  status.leases_held = static_cast<std::uint16_t>(leases_.size());
  return status;
}

void DrsDaemon::query_peer_status(NodeId peer, util::Duration timeout,
                                  StatusCallback done) {
  const std::uint64_t request_id =
      (static_cast<std::uint64_t>(self()) << 32) | next_request_seq_++;

  auto payload = util::make_pooled<DrsControlPayload>(host_.simulator().arena());
  payload->type = DrsMessageType::kStatusRequest;
  payload->request_id = request_id;
  payload->requester = self();
  payload->target = peer;

  net::Packet packet;
  // Routed (not interface-pinned): the query rides whatever detours are in
  // force, so it reaches any node the data plane can reach.
  packet.dst = net::cluster_ip(net::kNetworkA, peer);
  packet.protocol = net::Protocol::kDrsControl;
  packet.payload = std::move(payload);
  ++metrics_.control_messages_sent;

  PendingStatusQuery query;
  query.done = std::move(done);
  query.sent_at = host_.simulator().now();
  query.timeout = host_.simulator().schedule_after(timeout, [this, request_id] {
    auto it = status_queries_.find(request_id);
    if (it == status_queries_.end()) return;
    StatusCallback callback = std::move(it->second.done);
    status_queries_.erase(it);
    callback(std::nullopt);
  });
  status_queries_.emplace(request_id, std::move(query));
  host_.send(std::move(packet));
}

bool DrsDaemon::host_routes_empty() const {
  for (const auto& route : host_.routing_table().routes()) {
    if (route.origin == net::RouteOrigin::kDrs) return false;
  }
  return true;
}

std::optional<NodeId> DrsDaemon::relay_for(NodeId peer) const {
  const PeerState* state = find_peer(peer);
  if (state == nullptr || state->mode != PeerRouteMode::kRelay) {
    return std::nullopt;
  }
  return state->relay;
}

// ---------------------------------------------------------------------------
// Phase 1: monitoring
// ---------------------------------------------------------------------------

void DrsDaemon::on_cycle() {
  // Phase 2 housekeeping first: expire relay leases we hold, refresh leases
  // we depend on, retry discovery for unreachable peers. In the healthy
  // steady state (no leases, every peer direct) both walks are behavioral
  // no-ops, so the nondirect counter lets the tick skip the map walk
  // entirely — the common case for every node in a healthy cluster.
  if (!leases_.empty()) sweep_leases();
  if (nondirect_peers_ > 0) {
    for (std::uint32_t slot = 0; slot < peers_.size(); ++slot) {
      const NodeId peer = table_.peer(slot);
      const PeerState& state = peers_[slot];
      if (state.mode == PeerRouteMode::kRelay) {
        refresh_relay_lease(peer);
        send_path_probe(peer);
      } else if (state.mode == PeerRouteMode::kUnreachable && !state.discovering) {
        start_discovery(peer);
      }
    }
  }

  // Phase 1: probe every (peer, network) link, optionally spread across the
  // cycle so the monitoring traffic is a smooth load instead of a burst.
  const std::size_t total = table_.entry_count();
  if (total == 0) return;
  if (!config_.spread_probes) {
    // Burst mode: the whole sweep fires inline at the tick.
    for (std::uint32_t e = 0; e < total; ++e) send_entry_probe(e);
    return;
  }
  // One scheduler cursor per cycle stands in for 2(N-1) send events. Its
  // rank is claimed here, at the tick, and serves every spread offset, so
  // sends tie-break against any same-instant foreign event (path-probe
  // timeouts, discovery timers, frame deliveries pushed later in this tick)
  // as send events pushed at the tick would. A new rank also retires the
  // previous cycle's cursor, should its sweep still be running.
  sweep_pos_ = 0;
  sweep_rank_ = host_.simulator().claim_event_rank();
  scheduler_.schedule_send(*this, host_.simulator().now().ns(), sweep_rank_);
}

std::int64_t DrsDaemon::run_sweep() {
  const std::size_t total = table_.entry_count();
  const std::int64_t interval = config_.probe_interval.ns();
  // Entry `index` is sent floor(interval * index / total) past the tick; the
  // cursor sends the run of entries sharing this firing's offset (a run is
  // length 1 whenever total < interval in ns), then hands back the next one.
  const std::int64_t offset = interval * static_cast<std::int64_t>(sweep_pos_) /
                              static_cast<std::int64_t>(total);
  while (sweep_pos_ < total) {
    const std::int64_t at = interval * static_cast<std::int64_t>(sweep_pos_) /
                            static_cast<std::int64_t>(total);
    if (at != offset) return host_.simulator().now().ns() + (at - offset);
    send_entry_probe(sweep_pos_);
    ++sweep_pos_;
  }
  return kSweepDone;
}

void DrsDaemon::send_entry_probe(std::uint32_t entry) {
  const NodeId peer = table_.entry_peer(entry);
  const NetworkId network = PeerTable::entry_network(entry);
  proto::PingOptions options;
  options.timeout = probe_timeout_for(network);
  options.via = network;
  options.data_bytes = config_.probe_data_bytes;
  ++metrics_.probes_sent;
  // The scheduler owns expiry: no per-probe timeout event, no cancel
  // tombstone. Its record is claimed before the echo frame goes out — where
  // a managed ping would push its timeout. The daemon owns correlation
  // (probe_seq_) and the send instant, so the echo itself is raw:
  // IcmpService emits the same trace and counters as for a managed ping but
  // keeps no per-probe state.
  const std::int64_t now = host_.simulator().now().ns();
  const std::int64_t deadline = now + options.timeout.ns();
  scheduler_.note_deadline(*this, entry, deadline);
  const std::uint16_t seq =
      icmp_.send_echo(net::cluster_ip(network, peer), options);
  // drs-lint: hotpath-purity-ok(amortized: seq map holds at most the in-flight probe window, rehashes only while warming)
  probe_seq_.insert(seq, entry);
  table_.mark_sent(entry, seq, now, deadline);
}

bool DrsDaemon::on_raw_probe_reply(std::uint16_t seq) {
  const std::uint32_t* found = probe_seq_.find(seq);
  if (found == nullptr) return false;  // managed ping, or late after expiry
  const std::uint32_t entry = *found;
  probe_seq_.erase(seq);
  const std::int64_t now = host_.simulator().now().ns();
  table_.clear_outstanding(entry);
  proto::PingResult result;
  result.success = true;
  result.seq = seq;
  result.rtt = util::Duration::nanos(now - table_.sent_ns(entry));
  on_probe_result(table_.entry_peer(entry), PeerTable::entry_network(entry),
                  result);
  return true;
}

void DrsDaemon::expire_entry(std::uint32_t entry) {
  const std::uint16_t seq = table_.seq(entry);
  probe_seq_.erase(seq);
  // Same order as a managed ping's timeout: timed-out counter + kPingLost
  // trace first, then the failure verdict.
  icmp_.expire_raw(seq);
  table_.clear_outstanding(entry);
  proto::PingResult result;
  result.success = false;
  result.seq = seq;
  result.rtt =
      host_.simulator().now() - util::SimTime::from_ns(table_.sent_ns(entry));
  on_probe_result(table_.entry_peer(entry), PeerTable::entry_network(entry),
                  result);
}

util::Duration DrsDaemon::probe_timeout_for(NetworkId network) const {
  if (!config_.adaptive_timeout || srtt_[network] <= 0.0) {
    return config_.probe_timeout;
  }
  // Jacobson bound plus a 0.5 ms safety margin for queueing behind bursts.
  const util::Duration adaptive = util::Duration::from_seconds(
      srtt_[network] + 4.0 * rttvar_[network] + 0.0005);
  return std::clamp(adaptive, config_.min_probe_timeout, config_.probe_timeout);
}

void DrsDaemon::update_rtt(NetworkId network, util::Duration rtt) {
  const double sample = rtt.to_seconds();
  if (srtt_[network] <= 0.0) {
    srtt_[network] = sample;
    rttvar_[network] = sample / 2.0;
  } else {
    rttvar_[network] =
        0.75 * rttvar_[network] + 0.25 * std::abs(srtt_[network] - sample);
    srtt_[network] = 0.875 * srtt_[network] + 0.125 * sample;
  }
}

void DrsDaemon::on_probe_result(NodeId peer, NetworkId network,
                                const proto::PingResult& result) {
  const bool success = result.success;
  if (success) {
    // Only the adaptive timeout reads the estimators.
    if (config_.adaptive_timeout) update_rtt(network, result.rtt);
  } else {
    ++metrics_.probes_failed;
    // The daemon-level detection signal the failover timelines are built
    // from (raw kPingLost also fires, but covers non-monitoring echoes too).
    DRS_TRACE_EVENT(host_.simulator().tracer(),
                    .at_ns = host_.simulator().now().ns(),
                    .kind = obs::TraceEventKind::kProbeLost, .node = self(),
                    .peer = peer, .network = network, .a = result.seq);
  }
  const bool verdict_changed =
      links_.record_probe(peer, network, success, host_.simulator().now());
  if (!verdict_changed) return;
  if (links_.state(peer, network) == LinkState::kDown) {
    ++metrics_.links_declared_down;
    DRS_INFO("drs", "node %u: link to %u on net %u DOWN", self(), peer, network);
  } else {
    ++metrics_.links_declared_up;
    DRS_INFO("drs", "node %u: link to %u on net %u UP", self(), peer, network);
  }
  recompute_peer(peer);
}

// ---------------------------------------------------------------------------
// Phase 2: fixing problems
// ---------------------------------------------------------------------------

void DrsDaemon::recompute_peer(NodeId peer) {
  PeerState& state = peer_state(peer);
  const bool up_a = links_.usable(peer, net::kNetworkA);
  const bool up_b = links_.usable(peer, net::kNetworkB);

  if (up_a && up_b) {
    state.standby_valid = false;  // fresh start; re-arm on the next failure
    set_mode(peer, PeerRouteMode::kDirect);
    return;
  }
  if (up_a || up_b) {
    set_mode(peer, up_a ? PeerRouteMode::kViaNetworkA : PeerRouteMode::kViaNetworkB);
    // One leg is already gone: pre-arm a relay so losing the second leg
    // costs no discovery round trip.
    if (config_.warm_standby && !state.standby_valid && !state.discovering) {
      start_discovery(peer, /*for_standby=*/true);
    }
    return;
  }
  // Both direct links down. Keep a working relay if we have one; otherwise
  // use the warm standby, and only then go hunting.
  if (state.mode == PeerRouteMode::kRelay &&
      links_.usable(state.relay, state.relay_network)) {
    return;
  }
  if (config_.warm_standby && state.standby_valid &&
      links_.usable(state.standby_relay, state.standby_network)) {
    ++metrics_.standby_activations;
    DRS_INFO("drs", "node %u: warm standby relay %u activated for peer %u",
             self(), state.standby_relay, peer);
    set_mode(peer, PeerRouteMode::kRelay, state.standby_relay,
             state.standby_network);
    refresh_relay_lease(peer);
    return;
  }
  set_mode(peer, PeerRouteMode::kUnreachable);
  start_discovery(peer);
}

void DrsDaemon::set_mode(NodeId peer, PeerRouteMode mode, NodeId relay,
                         NetworkId relay_network) {
  PeerState& state = peer_state(peer);
  if (state.mode == mode && state.relay == relay &&
      state.relay_network == relay_network) {
    return;
  }
  const PeerRouteMode previous = state.mode;
  if (previous == PeerRouteMode::kRelay && mode != PeerRouteMode::kRelay) {
    // Leaving relay mode for any reason: release the lease early
    // (best-effort — it would expire on its own if this is lost).
    send_control(DrsMessageType::kRouteTeardown, peer, state.request_id,
                 state.relay, state.relay_network,
                 net::cluster_ip(state.relay_network, state.relay));
  }
  ++metrics_.route_changes;
  if (previous == PeerRouteMode::kDirect && mode != PeerRouteMode::kDirect) {
    ++nondirect_peers_;
  } else if (previous != PeerRouteMode::kDirect && mode == PeerRouteMode::kDirect) {
    --nondirect_peers_;
  }
  state.mode = mode;
  state.relay = relay;
  state.relay_network = relay_network;
  // Detour episodes in the trace: leaving direct = install, returning =
  // teardown, anything else while away = switch. Install/teardown strictly
  // alternate per (node, peer) — the property obs::audit_detours checks.
  const std::int64_t now_ns = host_.simulator().now().ns();
  if (previous == PeerRouteMode::kDirect) {
    DRS_TRACE_EVENT(host_.simulator().tracer(), .at_ns = now_ns,
                    .kind = obs::TraceEventKind::kDetourInstall, .node = self(),
                    .peer = peer, .a = static_cast<std::int64_t>(mode),
                    .b = relay);
  } else if (mode == PeerRouteMode::kDirect) {
    DRS_TRACE_EVENT(host_.simulator().tracer(), .at_ns = now_ns,
                    .kind = obs::TraceEventKind::kDetourTeardown,
                    .node = self(), .peer = peer,
                    .a = static_cast<std::int64_t>(previous));
  } else {
    DRS_TRACE_EVENT(host_.simulator().tracer(), .at_ns = now_ns,
                    .kind = obs::TraceEventKind::kDetourSwitch, .node = self(),
                    .peer = peer, .a = static_cast<std::int64_t>(mode),
                    .b = relay);
  }
  if (mode != PeerRouteMode::kUnreachable && state.discovering) {
    state.discover_timer.cancel();
    state.discovering = false;
    state.offers.clear();
  }
  sync_routes();
}

void DrsDaemon::start_discovery(NodeId peer, bool for_standby) {
  if (!config_.allow_relay) return;
  PeerState& state = peer_state(peer);
  if (state.discovering) return;
  state.discovering = true;
  state.discovery_for_standby = for_standby;
  state.offers.clear();
  state.request_id =
      (static_cast<std::uint64_t>(self()) << 32) | next_request_seq_++;
  ++metrics_.discoveries_started;
  DRS_TRACE_EVENT(host_.simulator().tracer(),
                  .at_ns = host_.simulator().now().ns(),
                  .kind = obs::TraceEventKind::kDiscoveryStart, .node = self(),
                  .peer = peer, .a = for_standby ? 1 : 0);
  DRS_INFO("drs", "node %u: discovering relay for peer %u", self(), peer);
  broadcast_control(DrsMessageType::kRouteDiscover, peer, state.request_id);
  state.discover_timer = host_.simulator().schedule_after(
      config_.discover_timeout, [this, peer] { finish_discovery(peer); });
}

void DrsDaemon::finish_discovery(NodeId peer) {
  PeerState& state = peer_state(peer);
  state.discovering = false;
  const bool for_standby = state.discovery_for_standby;
  state.discovery_for_standby = false;
  if (state.offers.empty()) {
    // No volunteer. (A mode-driving round retries next cycle.)
    return;
  }
  // Deterministic choice: lowest (relay id, network). All offers are from
  // nodes with verified direct links; any would do.
  const auto best = std::min_element(
      state.offers.begin(), state.offers.end(),
      [](const PeerState::Offer& a, const PeerState::Offer& b) {
        return std::tie(a.relay, a.network) < std::tie(b.relay, b.network);
      });
  const PeerState::Offer offer = *best;
  state.offers.clear();
  if (for_standby) {
    state.standby_valid = true;
    state.standby_relay = offer.relay;
    state.standby_network = offer.network;
    DRS_INFO("drs", "node %u: standby relay %u (net %u) armed for peer %u",
             self(), offer.relay, offer.network, peer);
    // Mode is untouched: the direct detour is still carrying traffic.
    return;
  }
  ++metrics_.relays_selected;
  DRS_TRACE_EVENT(host_.simulator().tracer(),
                  .at_ns = host_.simulator().now().ns(),
                  .kind = obs::TraceEventKind::kRelaySelected, .node = self(),
                  .peer = peer, .network = offer.network, .a = offer.relay);
  DRS_INFO("drs", "node %u: relay %u (net %u) selected for peer %u", self(),
           offer.relay, offer.network, peer);
  set_mode(peer, PeerRouteMode::kRelay, offer.relay, offer.network);
  refresh_relay_lease(peer);
}

void DrsDaemon::send_path_probe(NodeId peer) {
  // Direct probes are pinned to interfaces, so they keep reporting the dead
  // direct links — they say nothing about whether the relay detour actually
  // delivers. Verify it end-to-end with a *routed* echo; a relay whose own
  // links rotted is dropped and discovery restarts.
  proto::PingOptions options;
  options.timeout = config_.probe_timeout;
  options.data_bytes = config_.probe_data_bytes;
  ++metrics_.probes_sent;
  const std::uint16_t seq = icmp_.ping(
      net::cluster_ip(net::kNetworkA, peer), options,
      [this, peer](const proto::PingResult& result) {
        outstanding_probes_.erase(result.seq);
        PeerState& state = peer_state(peer);
        if (state.mode != PeerRouteMode::kRelay) return;
        if (result.success) {
          state.path_probe_failures = 0;
          return;
        }
        ++metrics_.probes_failed;
        if (++state.path_probe_failures >= config_.failures_to_down) {
          DRS_INFO("drs", "node %u: relay path to %u via %u is dead", self(),
                   peer, state.relay);
          state.path_probe_failures = 0;
          set_mode(peer, PeerRouteMode::kUnreachable);
          start_discovery(peer);
        }
      });
  outstanding_probes_.insert(seq);
}

void DrsDaemon::refresh_relay_lease(NodeId peer) {
  const PeerState& state = peer_state(peer);
  assert(state.mode == PeerRouteMode::kRelay);
  send_control(DrsMessageType::kRouteSet, peer, state.request_id, state.relay,
               state.relay_network,
               net::cluster_ip(state.relay_network, state.relay));
}

void DrsDaemon::sweep_leases() {
  const util::SimTime now = host_.simulator().now();
  bool changed = false;
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.expires < now) {
      ++metrics_.leases_expired;
      DRS_TRACE_EVENT(host_.simulator().tracer(), .at_ns = now.ns(),
                      .kind = obs::TraceEventKind::kLeaseExpired,
                      .node = self(), .peer = it->first.target,
                      .a = it->first.requester);
      it = leases_.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  if (changed) sync_routes();
}

// ---------------------------------------------------------------------------
// Route synchronization
// ---------------------------------------------------------------------------

void DrsDaemon::sync_routes() {
  // Declarative: compute the complete set of /32 DRS routes this node should
  // have, then reconcile the table. Idempotent by construction, so no
  // ordering of failures/repairs/lease churn can leave stale state behind.
  std::map<std::uint32_t, net::Route> desired;

  auto want_route = [&](net::Ipv4Addr dst, NetworkId out_if, net::Ipv4Addr next_hop) {
    desired[dst.value()] = net::Route{
        .prefix = dst,
        .prefix_len = 32,
        .out_ifindex = out_if,
        .next_hop = next_hop,
        .metric = 1,
        .origin = net::RouteOrigin::kDrs,
    };
  };

  // Relay role: for every active lease, make sure both endpoints' addresses
  // are deliverable from here, overriding the subnet route where the direct
  // link is down.
  for (const auto& [key, lease] : leases_) {
    for (NodeId endpoint : {key.requester, key.target}) {
      if (endpoint == self() || endpoint >= node_count_) continue;
      for (NetworkId k = 0; k < net::kNetworksPerHost; ++k) {
        const NetworkId other = static_cast<NetworkId>(1 - k);
        if (!links_.usable(endpoint, k) && links_.usable(endpoint, other)) {
          want_route(net::cluster_ip(k, endpoint), other, net::cluster_ip(other, endpoint));
        }
      }
    }
  }

  // Requester role: our own per-peer routing decisions (written after the
  // lease loop, so they win on conflict).
  for (std::uint32_t slot = 0; slot < peers_.size(); ++slot) {
    const NodeId peer = table_.peer(slot);
    const PeerState& state = peers_[slot];
    switch (state.mode) {
      case PeerRouteMode::kDirect:
      case PeerRouteMode::kUnreachable:
        break;
      case PeerRouteMode::kViaNetworkA:
        want_route(net::cluster_ip(net::kNetworkB, peer), net::kNetworkA,
                   net::cluster_ip(net::kNetworkA, peer));
        break;
      case PeerRouteMode::kViaNetworkB:
        want_route(net::cluster_ip(net::kNetworkA, peer), net::kNetworkB,
                   net::cluster_ip(net::kNetworkB, peer));
        break;
      case PeerRouteMode::kRelay: {
        const net::Ipv4Addr relay_addr =
            net::cluster_ip(state.relay_network, state.relay);
        want_route(net::cluster_ip(net::kNetworkA, peer), state.relay_network, relay_addr);
        want_route(net::cluster_ip(net::kNetworkB, peer), state.relay_network, relay_addr);
        break;
      }
    }
  }

  // Reconcile.
  net::RoutingTable& table = host_.routing_table();
  std::vector<net::Ipv4Addr> stale;
  for (const auto& route : table.routes()) {
    if (route.origin != net::RouteOrigin::kDrs) continue;
    auto want = desired.find(route.prefix.value());
    if (want == desired.end()) {
      // drs-lint: hotpath-purity-ok(route reconciliation runs only on a mode transition, not per probe)
      stale.push_back(route.prefix);
    } else if (want->second.out_ifindex == route.out_ifindex &&
               want->second.next_hop == route.next_hop) {
      desired.erase(want);  // already in place
    }
  }
  for (net::Ipv4Addr prefix : stale) {
    table.remove(prefix, 32, net::RouteOrigin::kDrs);
    ++metrics_.route_removals;
  }
  for (const auto& [value, route] : desired) {
    table.install(route);
    ++metrics_.route_installs;
  }
}

// ---------------------------------------------------------------------------
// Control plane
// ---------------------------------------------------------------------------

void DrsDaemon::send_control(DrsMessageType type, NodeId target_node,
                             std::uint64_t request_id, NodeId relay,
                             NetworkId via, net::Ipv4Addr dst) {
  auto payload = util::make_pooled<DrsControlPayload>(host_.simulator().arena());
  payload->type = type;
  payload->request_id = request_id;
  payload->requester = self();
  payload->target = target_node;
  payload->relay = relay;

  net::Packet packet;
  packet.dst = dst;
  packet.protocol = net::Protocol::kDrsControl;
  packet.payload = std::move(payload);
  ++metrics_.control_messages_sent;
  host_.send_via(via, dst, std::move(packet));
}

void DrsDaemon::broadcast_control(DrsMessageType type, NodeId target_node,
                                  std::uint64_t request_id) {
  for (NetworkId k = 0; k < net::kNetworksPerHost; ++k) {
    auto payload = util::make_pooled<DrsControlPayload>(host_.simulator().arena());
    payload->type = type;
    payload->request_id = request_id;
    payload->requester = self();
    payload->target = target_node;

    net::Packet packet;
    packet.dst = net::Ipv4Addr(net::cluster_subnet(k).value() | 0xFFu);
    packet.protocol = net::Protocol::kDrsControl;
    packet.payload = std::move(payload);
    ++metrics_.control_messages_sent;
    host_.broadcast_on(k, std::move(packet));
  }
}

void DrsDaemon::on_control(const net::Packet& packet, NetworkId in_ifindex) {
  const DrsControlPayload* msg = net::payload_cast<DrsControlPayload>(packet.payload);
  if (msg == nullptr) return;
  switch (msg->type) {
    case DrsMessageType::kRouteDiscover:
      handle_discover(*msg, packet, in_ifindex);
      break;
    case DrsMessageType::kRouteOffer:
      handle_offer(*msg, packet, in_ifindex);
      break;
    case DrsMessageType::kRouteSet:
      handle_route_set(*msg, packet, in_ifindex);
      break;
    case DrsMessageType::kRouteSetAck:
      break;  // metrics-only today; the lease refresh is unacknowledged-safe
    case DrsMessageType::kRouteTeardown:
      handle_teardown(*msg);
      break;
    case DrsMessageType::kStatusRequest:
      handle_status_request(*msg, packet, in_ifindex);
      break;
    case DrsMessageType::kStatusReply:
      handle_status_reply(*msg);
      break;
  }
}

void DrsDaemon::handle_status_request(const DrsControlPayload& msg,
                                      const net::Packet& packet,
                                      NetworkId in_ifindex) {
  (void)in_ifindex;
  if (msg.target != self()) return;
  const RemoteStatus status = local_status();
  auto payload = util::make_pooled<DrsControlPayload>(host_.simulator().arena());
  payload->type = DrsMessageType::kStatusReply;
  payload->request_id = msg.request_id;
  payload->requester = self();  // the responder identifies itself here
  payload->target = msg.requester;
  payload->links_down = status.links_down;
  payload->detours = status.detours;
  payload->leases_held = status.leases_held;

  net::Packet reply;
  reply.dst = packet.src;  // routed back, possibly over a different path
  reply.protocol = net::Protocol::kDrsControl;
  reply.payload = std::move(payload);
  ++metrics_.control_messages_sent;
  host_.send(std::move(reply));
}

void DrsDaemon::handle_status_reply(const DrsControlPayload& msg) {
  auto it = status_queries_.find(msg.request_id);
  if (it == status_queries_.end()) return;  // late reply after timeout
  PendingStatusQuery query = std::move(it->second);
  status_queries_.erase(it);
  query.timeout.cancel();

  RemoteStatus status;
  status.node = msg.requester;
  status.links_down = msg.links_down;
  status.detours = msg.detours;
  status.leases_held = msg.leases_held;
  status.rtt = host_.simulator().now() - query.sent_at;
  query.done(status);
}

void DrsDaemon::handle_discover(const DrsControlPayload& msg,
                                const net::Packet& packet, NetworkId in_ifindex) {
  if (msg.requester == self() || msg.target == self()) return;
  // No link-state evidence about unmonitored peers: never volunteer blind.
  if (!monitors(msg.target)) return;
  // Loop avoidance: offer only when we have *direct* usable links — never
  // volunteer a path that itself depends on a detour.
  bool can_reach_target = false;
  for (NetworkId k = 0; k < net::kNetworksPerHost; ++k) {
    if (links_.usable(msg.target, k)) can_reach_target = true;
  }
  if (!can_reach_target) return;
  // The discover arrived on in_ifindex, so the requester-to-us link on that
  // network carries traffic; answer there.
  ++metrics_.offers_sent;
  send_control(DrsMessageType::kRouteOffer, msg.target, msg.request_id, self(),
               in_ifindex, packet.src);
}

void DrsDaemon::handle_offer(const DrsControlPayload& msg,
                             const net::Packet& packet, NetworkId in_ifindex) {
  if (!monitors(msg.target)) return;
  PeerState& state = peer_state(msg.target);
  if (!state.discovering || msg.request_id != state.request_id) return;
  ++metrics_.offers_received;
  state.offers.push_back(PeerState::Offer{msg.relay, in_ifindex, packet.src});
}

void DrsDaemon::handle_route_set(const DrsControlPayload& msg,
                                 const net::Packet& packet, NetworkId in_ifindex) {
  if (msg.relay != self()) return;
  // Accept leases only for peers we monitor (we never offered otherwise;
  // this guards against stale or forged requests).
  if (!monitors(msg.target) || !monitors(msg.requester)) return;
  ++metrics_.route_sets_honored;
  DRS_TRACE_EVENT(host_.simulator().tracer(),
                  .at_ns = host_.simulator().now().ns(),
                  .kind = obs::TraceEventKind::kLeaseGranted, .node = self(),
                  .peer = msg.target, .a = msg.requester);
  leases_[LeaseKey{msg.requester, msg.target}] =
      Lease{host_.simulator().now() + config_.relay_route_lifetime};
  sync_routes();
  send_control(DrsMessageType::kRouteSetAck, msg.target, msg.request_id, self(),
               in_ifindex, packet.src);
}

void DrsDaemon::handle_teardown(const DrsControlPayload& msg) {
  if (leases_.erase(LeaseKey{msg.requester, msg.target}) > 0) {
    sync_routes();
  }
}

}  // namespace drs::core
