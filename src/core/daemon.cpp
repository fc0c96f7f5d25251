#include "core/daemon.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "obs/macros.hpp"
#include "util/arena.hpp"
#include "util/log.hpp"

namespace drs::core {

using net::NetworkId;
using net::NodeId;

bool ProbeTimeoutSweeper::live(const Record& r) const {
  const PeerTable& table = r.daemon->table_;
  return table.outstanding(r.entry) &&
         table.deadline_ns(r.entry) == r.deadline_ns;
}

void ProbeTimeoutSweeper::note_deadline(DrsDaemon& daemon, std::uint32_t entry,
                                        std::int64_t deadline_ns) {
  // One record — and one claimed rank — per probe, mirroring the per-probe
  // timeout event the legacy scheduler pushed right here. The rank is spent
  // when the scan is armed at this record's deadline, so the scan pops in
  // the precise queue position legacy's own timeout event held.
  const std::uint64_t rank = sim_.claim_event_rank();
  if (deadline_ns < last_deadline_ns_) monotone_ = false;
  last_deadline_ns_ = deadline_ns;
  // drs-lint: hotpath-purity-ok(amortized: record vector reaches in-flight-window size once, then recycles capacity)
  records_.push_back(Record{deadline_ns, rank, &daemon, entry});
  // An already-pending earlier scan covers this deadline (it re-arms itself
  // forward when it fires); with fixed timeouts that is every non-idle send.
  if (!scan_.pending() || deadline_ns < scan_at_ns_) arm(deadline_ns, rank);
}

void ProbeTimeoutSweeper::arm(std::int64_t deadline_ns, std::uint64_t rank) {
  scan_.cancel();
  scan_at_ns_ = deadline_ns;
  scan_ = sim_.schedule_at_ranked(util::SimTime::from_ns(deadline_ns),
                                  [this] { fire(); }, rank);
}

void ProbeTimeoutSweeper::cancel() {
  scan_.cancel();
  records_.clear();
  head_ = 0;
}

void ProbeTimeoutSweeper::fire() {
  const std::int64_t now = sim_.now().ns();
  // Earliest-deadline live record: the first live one from head_ in the
  // monotone (fixed-timeout) case, else a full search.
  const auto earliest_live = [this]() -> std::size_t {
    if (monotone_) {
      while (head_ < records_.size() && !live(records_[head_])) ++head_;
      return head_;
    }
    std::size_t best = records_.size();
    for (std::size_t i = head_; i < records_.size(); ++i) {
      if (!live(records_[i])) continue;
      if (best == records_.size() ||
          records_[i].deadline_ns < records_[best].deadline_ns) {
        best = i;
      }
    }
    return best;
  };

  std::size_t due = earliest_live();
  if (due < records_.size() && records_[due].deadline_ns <= now) {
    // Exactly one expiry per firing: the re-arm below uses the *next*
    // record's claimed rank (often at this same instant), reproducing the
    // legacy pop sequence event for event. expire_entry() runs the identical
    // managed-timeout path: kPingLost trace, timed-out counter, failure
    // verdict.
    const Record r = records_[due];
    if (monotone_) {
      ++head_;
    } else {
      records_.erase(records_.begin() + static_cast<std::ptrdiff_t>(due));
    }
    r.daemon->expire_entry(r.entry);
  }

  const std::size_t next = earliest_live();
  if (next < records_.size()) {
    arm(records_[next].deadline_ns, records_[next].rank);
  } else if (head_ == records_.size()) {
    // Idle and fully consumed: reclaim the ring in one go (the healthy
    // steady state — every probe replied before its deadline).
    records_.clear();
    head_ = 0;
  }
  // Bound the consumed prefix under sustained loss, amortized O(1)/record.
  if (head_ >= 4096 && head_ * 2 >= records_.size()) {
    records_.erase(records_.begin(), records_.begin() +
                                         static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

DrsDaemon::DrsDaemon(net::Host& host, proto::IcmpService& icmp,
                     std::uint16_t node_count, DrsConfig config,
                     ProbeTimeoutSweeper& sweeper)
    : host_(host),
      icmp_(icmp),
      node_count_(node_count),
      config_(config),
      links_(host.id(), node_count,
             LinkPolicy{config.failures_to_down, config.successes_to_up,
                        config.flap_threshold, config.flap_window,
                        config.flap_hold}),
      cycle_timer_(host.simulator(), config.probe_interval, [this] { on_cycle(); }),
      table_(node_count),
      sweeper_(sweeper) {
  if (config_.monitored_peers) {
    for (NodeId peer : *config_.monitored_peers) {
      if (peer != self() && peer < node_count_) peers_[peer] = PeerState{};
    }
  } else {
    for (NodeId peer = 0; peer < node_count_; ++peer) {
      if (peer != self()) peers_[peer] = PeerState{};
    }
  }
  monitored_.assign(node_count_, 0);
  for (const auto& [peer, state] : peers_) monitored_[peer] = 1;
  // The SoA sweep fabric mirrors the (construction-fixed) monitored set in
  // ascending id order — the same order the legacy scheduler walked peers_.
  table_.reserve(peers_.size());
  for (const auto& [peer, state] : peers_) table_.add_peer(peer);
  sent_ns_.assign(table_.entry_count(), 0);
  probe_seq_.reserve(2u * table_.entry_count());
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
  for (auto& handle : pending_probe_sends_) handle.cancel();
  pending_probe_sends_.clear();
  sweep_cursor_.cancel();
  // The shared sweeper keeps scanning for its other daemons; with all of
  // this daemon's probes cancelled below it simply finds nothing due here.
  // Sweep probes are raw (no IcmpService state): dropping the correlation
  // map and deadlines is the whole cancellation.
  probe_seq_.clear();
  for (std::uint32_t e = 0; e < table_.entry_count(); ++e) {
    if (table_.outstanding(e)) table_.clear_outstanding(e);
  }
  for (auto& [peer, state] : peers_) state.discover_timer.cancel();
  // Pending management queries are dropped without a callback: the caller
  // stopped the daemon, so there is no meaningful answer to deliver.
  for (auto& [id, query] : status_queries_) query.timeout.cancel();
  status_queries_.clear();
}

PeerRouteMode DrsDaemon::peer_mode(NodeId peer) const {
  auto it = peers_.find(peer);
  return it == peers_.end() ? PeerRouteMode::kDirect : it->second.mode;
}

DrsDaemon::RemoteStatus DrsDaemon::local_status() const {
  RemoteStatus status;
  status.node = self();
  status.links_down = static_cast<std::uint16_t>(links_.down_count());
  std::uint16_t detours = 0;
  for (const auto& [peer, state] : peers_) {
    if (state.mode != PeerRouteMode::kDirect) ++detours;
  }
  status.detours = detours;
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
  auto it = peers_.find(peer);
  if (it == peers_.end() || it->second.mode != PeerRouteMode::kRelay) {
    return std::nullopt;
  }
  return it->second.relay;
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
    for (auto& [peer, state] : peers_) {
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
  if (config_.probe_scheduler == ProbeScheduler::kBatchedSweep) {
    schedule_cycle_probes_batched();
  } else {
    schedule_cycle_probes_legacy();
  }
}

void DrsDaemon::schedule_cycle_probes_legacy() {
  pending_probe_sends_.erase(
      std::remove_if(pending_probe_sends_.begin(), pending_probe_sends_.end(),
                     [](const sim::EventHandle& h) { return !h.pending(); }),
      pending_probe_sends_.end());
  const std::size_t total =
      peers_.size() * static_cast<std::size_t>(net::kNetworksPerHost);
  std::size_t index = 0;
  for (auto& [peer, state] : peers_) {
    for (NetworkId k = 0; k < net::kNetworksPerHost; ++k) {
      if (config_.spread_probes && total > 0) {
        const auto delay = util::Duration::nanos(
            config_.probe_interval.ns() * static_cast<std::int64_t>(index) /
            static_cast<std::int64_t>(total));
        const NodeId p = peer;
        pending_probe_sends_.push_back(host_.simulator().schedule_after(
            delay, [this, p, k] { send_probe(p, k); }));
      } else {
        send_probe(peer, k);
      }
      ++index;
    }
  }
}

void DrsDaemon::schedule_cycle_probes_batched() {
  const std::size_t total = table_.entry_count();
  if (total == 0) return;
  if (!config_.spread_probes) {
    // Burst mode: the whole sweep fires inline at the tick, exactly like the
    // legacy unspread path.
    for (std::uint32_t e = 0; e < total; ++e) send_entry_probe(e);
    return;
  }
  // One cursor event per cycle replaces the legacy 2(N-1) send events. Its
  // rank is claimed here — at the tick, where legacy pushed its whole block
  // of send events — and every spread-offset re-push reuses it, so cursor
  // firings tie-break against any same-instant foreign event (path-probe
  // timeouts, discovery timers, frame deliveries pushed later in this tick)
  // exactly like the legacy send events did.
  sweep_cursor_.cancel();
  sweep_pos_ = 0;
  sweep_rank_ = host_.simulator().claim_event_rank();
  sweep_cursor_ = host_.simulator().schedule_at_ranked(
      host_.simulator().now(), [this] { run_sweep(); }, sweep_rank_);
}

void DrsDaemon::run_sweep() {
  const std::size_t total = table_.entry_count();
  const std::int64_t interval = config_.probe_interval.ns();
  // Legacy send times are floor(interval * index / total) past the tick; the
  // cursor sends the run of entries sharing this firing's offset (a run is
  // length 1 whenever total < interval in ns), then sleeps to the next one.
  const std::int64_t offset = interval * static_cast<std::int64_t>(sweep_pos_) /
                              static_cast<std::int64_t>(total);
  while (sweep_pos_ < total) {
    const std::int64_t at = interval * static_cast<std::int64_t>(sweep_pos_) /
                            static_cast<std::int64_t>(total);
    if (at != offset) {
      sweep_cursor_ = host_.simulator().schedule_at_ranked(
          host_.simulator().now() + util::Duration::nanos(at - offset),
          [this] { run_sweep(); }, sweep_rank_);
      return;
    }
    send_entry_probe(sweep_pos_);
    ++sweep_pos_;
  }
}

void DrsDaemon::send_entry_probe(std::uint32_t entry) {
  const NodeId peer = table_.entry_peer(entry);
  const NetworkId network = PeerTable::entry_network(entry);
  proto::PingOptions options;
  options.timeout = probe_timeout_for(network);
  options.via = network;
  options.data_bytes = config_.probe_data_bytes;
  ++metrics_.probes_sent;
  // The sweeper owns expiry: no per-probe timeout event, no cancel
  // tombstone. Its record is claimed before the echo frame goes out — the
  // exact position IcmpService pushed the legacy managed timeout at. The
  // daemon owns correlation (probe_seq_) and the send instant, so the echo
  // itself is raw: IcmpService emits the identical trace and counters but
  // keeps no per-probe state.
  const std::int64_t now = host_.simulator().now().ns();
  const std::int64_t deadline = now + options.timeout.ns();
  sweeper_.note_deadline(*this, entry, deadline);
  const std::uint16_t seq =
      icmp_.send_echo(net::cluster_ip(network, peer), options);
  // drs-lint: hotpath-purity-ok(amortized: seq map holds at most the in-flight probe window, rehashes only while warming)
  probe_seq_.insert(seq, entry);
  sent_ns_[entry] = now;
  table_.mark_sent(entry, seq, deadline);
}

bool DrsDaemon::on_raw_probe_reply(std::uint16_t seq) {
  const std::uint32_t* found = probe_seq_.find(seq);
  if (found == nullptr) return false;  // managed ping, or late after expiry
  const std::uint32_t entry = *found;
  probe_seq_.erase(seq);
  const std::int64_t now = host_.simulator().now().ns();
  table_.clear_outstanding(entry);
  table_.record_seen(entry, now);
  proto::PingResult result;
  result.success = true;
  result.seq = seq;
  result.rtt = util::Duration::nanos(now - sent_ns_[entry]);
  on_probe_result(table_.entry_peer(entry), PeerTable::entry_network(entry),
                  result);
  return true;
}

void DrsDaemon::expire_entry(std::uint32_t entry) {
  const std::uint16_t seq = table_.seq(entry);
  probe_seq_.erase(seq);
  // Same order as the legacy managed timeout: timed-out counter + kPingLost
  // trace first, then the failure verdict.
  icmp_.expire_raw(seq);
  table_.clear_outstanding(entry);
  proto::PingResult result;
  result.success = false;
  result.seq = seq;
  result.rtt = host_.simulator().now() - util::SimTime::from_ns(sent_ns_[entry]);
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

void DrsDaemon::send_probe(NodeId peer, NetworkId network) {
  proto::PingOptions options;
  options.timeout = probe_timeout_for(network);
  options.via = network;
  options.data_bytes = config_.probe_data_bytes;
  ++metrics_.probes_sent;
  const std::uint16_t seq = icmp_.ping(
      net::cluster_ip(network, peer), options,
      [this, peer, network](const proto::PingResult& result) {
        outstanding_probes_.erase(result.seq);
        on_probe_result(peer, network, result);
      });
  outstanding_probes_.insert(seq);
}

void DrsDaemon::on_probe_result(NodeId peer, NetworkId network,
                                const proto::PingResult& result) {
  // The ICMP service indexes callbacks by seq; any completed seq can be
  // dropped from the cancellation set (values recycle every 65k probes).
  const bool success = result.success;
  if (success) {
    update_rtt(network, result.rtt);
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
  // Mirror the usable verdict into the SoA table (generation bumps on flip);
  // path probes bypass this path, so only swept (peer, network) links land.
  if (table_.contains(peer)) {
    table_.record_state(PeerTable::entry(table_.slot_of(peer), network),
                        links_.usable(peer, network));
  }
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
  PeerState& state = peers_.at(peer);
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
  PeerState& state = peers_.at(peer);
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
  // drs-lint: hotpath-purity-ok(runs only on a mode transition, a rare reconvergence event, not per probe)
  metrics_.route_changes.push_back(RouteChange{host_.simulator().now(), peer,
                                               previous, mode, relay});
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
  PeerState& state = peers_.at(peer);
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
  PeerState& state = peers_.at(peer);
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
        auto it = peers_.find(peer);
        if (it == peers_.end() || it->second.mode != PeerRouteMode::kRelay) return;
        PeerState& state = it->second;
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
  const PeerState& state = peers_.at(peer);
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
  for (const auto& [peer, state] : peers_) {
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
  if (msg.target >= node_count_) return;
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
  auto it = peers_.find(msg.target);
  if (it == peers_.end()) return;
  PeerState& state = it->second;
  if (!state.discovering || msg.request_id != state.request_id) return;
  ++metrics_.offers_received;
  state.offers.push_back(PeerState::Offer{msg.relay, in_ifindex, packet.src});
}

void DrsDaemon::handle_route_set(const DrsControlPayload& msg,
                                 const net::Packet& packet, NetworkId in_ifindex) {
  if (msg.relay != self()) return;
  if (msg.requester >= node_count_ || msg.target >= node_count_) return;
  // Accept leases only for peers we monitor (we never offered otherwise;
  // this guards against stale or forged requests).
  if (peers_.find(msg.target) == peers_.end() ||
      peers_.find(msg.requester) == peers_.end()) {
    return;
  }
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
