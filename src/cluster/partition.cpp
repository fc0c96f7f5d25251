#include "cluster/partition.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "proto/icmp.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace drs::cluster {

std::vector<std::pair<std::uint16_t, std::uint16_t>> partition_clusters(
    std::uint16_t clusters, std::uint32_t shards) {
  if (shards == 0) shards = 1;
  if (clusters > 0 && shards > clusters) shards = clusters;
  std::vector<std::pair<std::uint16_t, std::uint16_t>> out;
  out.reserve(shards);
  const std::uint32_t base = shards > 0 ? clusters / shards : 0;
  const std::uint32_t rem = shards > 0 ? clusters % shards : 0;
  std::uint32_t begin = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::uint32_t size = base + (s < rem ? 1u : 0u);
    out.emplace_back(static_cast<std::uint16_t>(begin),
                     static_cast<std::uint16_t>(begin + size));
    begin += size;
  }
  return out;
}

namespace {

/// Coordinator-owned payload storage for frames crossing a shard boundary.
/// A crossing frame must not share arena-backed payload storage with its
/// source shard (the arena free list is not thread-safe and its lifetime is
/// per-shard), so offers and dues carry the ICMP payload BY VALUE and the
/// delivery path materializes it here: chunked so addresses are stable, and
/// recycled (not freed) at every window flush — steady-state crossings touch
/// the heap zero times, where the old per-delivery deep copy paid one
/// make_shared each. Payloads are immutable after placement; workers of the
/// delivered-to shards read them concurrently through the barrier's
/// release/acquire edges.
class PayloadSlab {
 public:
  proto::IcmpPayload* alloc() {
    const std::size_t chunk = used_ / kChunk;
    const std::size_t index = used_ % kChunk;
    if (chunk == chunks_.size()) {
      chunks_.push_back(
          std::make_unique<std::array<proto::IcmpPayload, kChunk>>());
    }
    ++used_;
    return &(*chunks_[chunk])[index];
  }

  /// Every payload handed out before this call has been consumed (flushed
  /// deliveries always execute inside their own window, and nothing in the
  /// gateway mesh retains a delivered payload past the receiving event).
  void recycle() { used_ = 0; }

 private:
  static constexpr std::size_t kChunk = 64;
  std::vector<std::unique_ptr<std::array<proto::IcmpPayload, kChunk>>> chunks_;
  std::size_t used_ = 0;
};

/// Non-owning aliasing handle into the slab: get() sees the payload, the
/// control block is empty so copies are two pointer writes (no atomics).
net::PayloadPtr slab_ptr(const proto::IcmpPayload* payload) {
  return net::PayloadPtr(net::PayloadPtr{}, payload);
}

}  // namespace

// ---------------------------------------------------------------------------
// RelayHubOracle: the shared relay medium, replayed centrally.
//
// Shard workers never touch shared relay state. Each stub backplane's
// boundary hook appends an Offer to its shard's private buffer (worker
// thread, no locks; the coordinator reads the buffers only while workers are
// parked at the window barrier). At every window merge the coordinator
// resolves the offers' lineage keys, interleaves them with the registered
// failure transitions in exact legacy (time, rank) order, and replays
// Backplane::transmit_hub verbatim: FIFO serialization against busy_until,
// the backlog bound, the loss RNG stream (same seed, same draw order), and
// the failure accounting (dropped_failed / lost_in_flight). Successful
// offers become pending Dues; the flush hook releases each Due as a foreign
// event once its arrival falls inside the upcoming window — unless an
// effective failure lands at or before the arrival, in which case the Due
// stays queued and is counted lost when the replay reaches that transition.
// ---------------------------------------------------------------------------
struct ShardedFleet::RelayOracle {
  /// One frame offered to the relay, captured at the shard boundary. In the
  /// certified lane `meta` is the transmitting event's consumed child slot:
  /// its parent field recovers the event's own key (ordering the offer among
  /// all events), and its resolution is the delivery's key (where legacy
  /// claimed the stream entry's rank). In the counter-equal lane the key is
  /// synthesized from (cluster, capture index) instead — see on_merge. The
  /// ICMP payload rides by value (frame.packet.payload is detached) so the
  /// capture path never heap-allocates; `wire_bytes` is latched before the
  /// detach for the replay's serialization math.
  struct Offer {
    std::int64_t t_ns = 0;
    sim::OrderingJournal::Meta meta;
    std::uint16_t cluster = 0;
    std::uint32_t wire_bytes = 0;
    net::Frame frame;
    proto::IcmpPayload payload;
    bool has_payload = false;
    net::MacAddr sender{};
  };

  /// A relay set_failed scheduled up front. `setup_idx` is the setup rank the
  /// legacy injection event's push would have claimed.
  struct Transition {
    std::int64_t t_ns = 0;
    std::uint64_t setup_idx = 0;
    bool failed = false;
  };

  /// A delivery in flight: the legacy hub's FIFO stream entry. Payload by
  /// value, like Offer; deliver() places it into the slab.
  struct Due {
    std::int64_t arrival_ns = 0;
    sim::PushKey key;
    net::Frame frame;
    proto::IcmpPayload payload;
    bool has_payload = false;
    net::MacAddr sender{};
  };

  /// Offer with its keys resolved against the merged window log.
  struct Resolved {
    std::int64_t t_ns = 0;
    sim::PushKey event_key;   // the transmitting event's key
    std::uint64_t intra = 0;  // offer order within that event
    sim::PushKey due_key;
    Offer* offer = nullptr;
  };

  RelayOracle(const net::Backplane::Config& relay_config, std::uint32_t shards,
              bool certified_lane)
      : config(relay_config),
        certified(certified_lane),
        rng(relay_config.seed, net::kNetworkA),
        offers(shards),
        staged(shards),
        attached(shards) {
    ser_min_ns = serialization_time(net::kMinEthFrameBytes).ns();
  }

  util::Duration serialization_time(std::uint32_t wire_bytes) const {
    // Identical arithmetic to Backplane::serialization_time — same doubles,
    // same rounding.
    const double bytes =
        static_cast<double>(wire_bytes + config.per_frame_overhead_bytes);
    return util::Duration::from_seconds(bytes * 8.0 / config.bits_per_second);
  }

  void register_nic(std::uint32_t shard, net::Nic* nic) {
    attached[shard].push_back(nic);
    if (!by_mac.insert(nic->mac().value(), {shard, nic})) mac_collision = true;
  }

  /// Boundary-hook path: runs on shard `shard`'s worker thread, touching only
  /// that shard's journal/simulator and its private offer buffer. Allocation
  /// free: the ICMP payload is copied by value and the frame's pointer
  /// detached (the old per-offer deep copy was one make_shared per crossing
  /// frame).
  void capture(std::uint32_t shard, sim::ShardedEngine& engine,
               const net::Nic& sender, const net::Frame& frame) {
    assert(!engine.journal(shard).in_setup() &&
           "the fleet emits no relay traffic during serialized setup");
    assert(engine.simulator(shard).in_boundary_scope() &&
           "relay offers must come from boundary-tagged events (the adaptive "
           "window bound counts only tagged causes; see docs/SHARDING.md)");
    Offer offer;
    offer.t_ns = engine.simulator(shard).now().ns();
    // Gateway hosts are numbered 0xF000 + cluster; the cluster index is the
    // counter-equal lane's replay key (legacy rank order is cluster-major at
    // equal times, see on_merge).
    offer.cluster = static_cast<std::uint16_t>(sender.owner() - 0xF000u);
    offer.wire_bytes = frame.wire_bytes();
    offer.frame = frame;
    offer.sender = sender.mac();
    if (const auto* icmp =
            net::payload_cast<proto::IcmpPayload>(frame.packet.payload)) {
      offer.payload = *icmp;
      offer.has_payload = true;
      offer.frame.packet.payload.reset();
    } else {
      assert(frame.packet.payload == nullptr &&
             "only ICMP payloads cross the relay in the fleet topology");
    }
    if (certified) offer.meta = engine.journal(shard).make_child_meta();
    offers[shard].push_back(std::move(offer));
  }

  void add_transition(std::int64_t t_ns, std::uint64_t setup_idx, bool fail) {
    assert(!prepared && "relay transitions must be scheduled before run_until");
    transitions.push_back(Transition{t_ns, setup_idx, fail});
  }

  /// Sorts transitions and precomputes the state-flipping failure times.
  /// Transitions only interact with failed_ among themselves (offers never
  /// write it), so effectiveness is decidable up front — which is what lets
  /// the flush hook prove a Due will survive until its arrival.
  void prepare() {
    if (prepared) return;
    prepared = true;
    std::stable_sort(transitions.begin(), transitions.end(),
                     [](const Transition& a, const Transition& b) {
                       if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
                       return a.setup_idx < b.setup_idx;
                     });
    bool state = false;
    for (const Transition& tr : transitions) {
      if (tr.failed == state) continue;
      state = tr.failed;
      if (state) effective_fails.push_back(tr.t_ns);
    }
  }

  /// True if an effective (state-flipping) failure lands in
  /// [replayed_to_ns, arrival] — the Due would be cleared from the legacy
  /// stream at that transition, so it must not be released.
  bool fail_blocks(std::int64_t arrival_ns) const {
    auto it = std::lower_bound(effective_fails.begin(), effective_fails.end(),
                               replayed_to_ns);
    return it != effective_fails.end() && *it <= arrival_ns;
  }

  /// Earliest time the oracle still owes the simulation: the next unapplied
  /// transition or the head pending delivery. Keeps the engine's time-skip
  /// from jumping over oracle-held work (a blocked head Due is always
  /// preceded by its blocking transition, so progress is guaranteed).
  std::int64_t next_pending_ns() const {
    std::int64_t next = std::numeric_limits<std::int64_t>::max();
    if (transition_cursor < transitions.size()) {
      next = transitions[transition_cursor].t_ns;
    }
    if (due_head < dues.size()) {
      next = std::min(next, dues[due_head].arrival_ns);
    }
    return next;
  }

  /// Earliest-output-time refinement for the adaptive window protocol
  /// (sim::ShardedEngine::EotHook). No cross-shard delivery can land before
  /// the returned time, so the engine may run every shard that far without a
  /// barrier. The argument: any future delivery is a Due minted from some
  /// offer at t >= cause, where `cause` = the earliest boundary-tagged or
  /// foreign event anywhere (the engine's bound) min'd with the oracle's own
  /// pending work (a queued Due executes as a tagged foreign event; a
  /// transition can reset the serialization clock). Legacy then serializes it
  /// no earlier than max(cause, busy') where busy' >= min(busy_until, next
  /// transition time) — set_failed is the only writer that moves busy_until
  /// backwards, to exactly the transition's time — and the arrival adds at
  /// least one minimum frame time plus propagation on top.
  std::int64_t eot_ns(std::int64_t engine_bound_ns) const {
    const std::int64_t never = std::numeric_limits<std::int64_t>::max();
    const std::int64_t cause = std::min(engine_bound_ns, next_pending_ns());
    const std::int64_t margin = ser_min_ns + config.propagation_delay.ns();
    if (cause >= never - margin) return never;
    std::int64_t ser_start = busy_until.ns();
    if (transition_cursor < transitions.size()) {
      ser_start = std::min(ser_start, transitions[transition_cursor].t_ns);
    }
    if (ser_start < cause) ser_start = cause;
    return ser_start + margin;
  }

  /// Flush hook: release every Due arriving inside [start, end) whose
  /// survival is proven. Arrivals are FIFO-monotone and both stop conditions
  /// are monotone in arrival, so head-first release is exhaustive. Deliveries
  /// are staged per shard and handed off in one add_foreign_batch call each;
  /// the payload slab recycles here because everything it held was consumed
  /// inside the previous window.
  void flush(ShardedFleet& fleet, std::int64_t, std::int64_t end_ns) {
    slab.recycle();
    bool delivered = false;
    while (due_head < dues.size()) {
      Due& due = dues[due_head];
      if (due.arrival_ns >= end_ns || fail_blocks(due.arrival_ns)) break;
      deliver(due);
      delivered = true;
      ++due_head;
    }
    if (due_head == dues.size()) {
      dues.clear();
      due_head = 0;
    } else if (due_head >= 1024 && due_head * 2 >= dues.size()) {
      dues.erase(dues.begin(),
                    dues.begin() + static_cast<std::ptrdiff_t>(due_head));
      due_head = 0;
    }
    if (delivered) {
      for (std::uint32_t s = 0; s < staged.size(); ++s) {
        fleet.engine_.add_foreign_batch(s, staged[s]);
      }
    }
  }

  /// One legacy delivery-stream pop, re-expressed as per-shard foreign
  /// events. Broadcast fan-out order is preserved end to end: within a shard
  /// by the attach-order NIC walk, across shards by the merge's
  /// lowest-shard-wins tie-break (shards own ascending cluster ranges, which
  /// is exactly the legacy attach order).
  void deliver(Due& due) {
    net::Frame frame = std::move(due.frame);
    if (due.has_payload) {
      proto::IcmpPayload* payload = slab.alloc();
      *payload = due.payload;
      frame.packet.payload = slab_ptr(payload);
    }
    if (frame.dst.is_broadcast() || mac_collision) {
      for (std::uint32_t s = 0; s < attached.size(); ++s) {
        if (attached[s].empty()) continue;
        const std::vector<net::Nic*>* nics = &attached[s];
        staged[s].push_back(sim::ShardedEngine::ForeignEvent{
            due.arrival_ns, due.key, [nics, frame, sender = due.sender] {
              for (net::Nic* nic : *nics) {
                if (nic->mac() != sender) nic->deliver(frame);
              }
            }});
      }
      return;
    }
    if (const auto* found = by_mac.find(frame.dst.value());
        found != nullptr && found->second->mac() != due.sender) {
      net::Nic* nic = found->second;
      staged[found->first].push_back(sim::ShardedEngine::ForeignEvent{
          due.arrival_ns, due.key, [nic, frame] { nic->deliver(frame); }});
    }
  }

  /// Merge hook: replay the window's offers and any transitions due before
  /// its end, in global (time, key) order — the exact chronological order the
  /// legacy run issued its transmit() calls and set_failed() events.
  ///
  /// Counter-equal lane: with no journal there are no lineage keys, so the
  /// replay key is synthesized as (time, cluster + 1, per-shard capture
  /// index). For the fleet this IS legacy chronological order: gateway
  /// timers were created cluster-major during serialized setup, so at equal
  /// times legacy rank order is cluster order; same-cluster offers at one
  /// time keep their shard-local execution (= capture) order; and the +1
  /// keeps every offer after the setup-band transition keys, which is where
  /// legacy put injection events relative to same-time runtime traffic.
  void on_merge(ShardedFleet& fleet, std::int64_t end_ns) {
    sim::ShardedEngine& engine = fleet.engine_;
    scratch.clear();
    for (std::uint32_t s = 0; s < engine.shard_count(); ++s) {
      if (!certified) {
        std::uint64_t position = 0;
        for (Offer& offer : offers[s]) {
          scratch.push_back(Resolved{
              offer.t_ns, sim::PushKey{std::uint64_t{offer.cluster} + 1u,
                                       position},
              0, sim::PushKey{}, &offer});
          ++position;
        }
        continue;
      }
      const sim::OrderingJournal& journal = engine.journal(s);
      for (Offer& offer : offers[s]) {
        assert(offer.meta.window_ref);
        scratch.push_back(Resolved{offer.t_ns,
                                   journal.entry_key(offer.meta.parent),
                                   offer.meta.idx, journal.resolve(offer.meta),
                                   &offer});
      }
    }
    // Keys are globally unique (one event key per executed event, one intra
    // index per offer within it), so plain sort is deterministic.
    std::sort(scratch.begin(), scratch.end(),
              [](const Resolved& a, const Resolved& b) {
                if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
                if (a.event_key != b.event_key) return a.event_key < b.event_key;
                return a.intra < b.intra;
              });

    std::size_t oi = 0;
    for (;;) {
      const bool more_tr = transition_cursor < transitions.size() &&
                           transitions[transition_cursor].t_ns < end_ns;
      const bool more_of = oi < scratch.size();
      if (!more_tr && !more_of) break;
      bool take_tr = more_tr;
      if (more_tr && more_of) {
        const Transition& tr = transitions[transition_cursor];
        const Resolved& ro = scratch[oi];
        take_tr = tr.t_ns != ro.t_ns
                      ? tr.t_ns < ro.t_ns
                      : sim::PushKey{sim::kSetupParent, tr.setup_idx} <
                            ro.event_key;
      }
      if (take_tr) {
        apply_transition(transitions[transition_cursor]);
        ++transition_cursor;
      } else {
        apply_offer(scratch[oi]);
        ++oi;
      }
    }
    replayed_to_ns = end_ns;
    for (auto& buffer : offers) buffer.clear();  // capacity retained
  }

  void apply_transition(const Transition& tr) {
    // Mirrors Backplane::set_failed: same-state transitions are no-ops;
    // either direction drops the live stream and resets the medium idle.
    if (failed == tr.failed) return;
    failed = tr.failed;
    busy_until = util::SimTime::from_ns(tr.t_ns);
    counters.lost_in_flight +=
        static_cast<std::uint64_t>(dues.size() - due_head);
    dues.clear();
    due_head = 0;
  }

  void apply_offer(Resolved& ro) {
    // Mirrors Backplane::transmit (hub path) statement for statement.
    if (failed) {
      ++counters.dropped_failed;
      return;
    }
    const util::SimTime now = util::SimTime::from_ns(ro.t_ns);
    const util::SimTime start = std::max(now, busy_until);
    if (start - now > config.max_backlog) {
      ++counters.dropped_backlog;
      return;
    }
    const util::Duration ser = serialization_time(ro.offer->wire_bytes);
    busy_until = start + ser;
    busy_seconds += ser.to_seconds();
    ++counters.frames;
    counters.bytes += ro.offer->wire_bytes + config.per_frame_overhead_bytes;
    if (config.frame_loss_rate > 0.0 &&
        rng.next_bernoulli(config.frame_loss_rate)) {
      ++counters.lost_random;
      return;
    }
    // Counter-equal dues need only a deterministic inbox tie-break; arrivals
    // are strictly increasing between failure epochs, so a monotone counter
    // key can never change execution order.
    const sim::PushKey key =
        certified ? ro.due_key : sim::PushKey{sim::kGseqBase, ++ce_due_seq};
    const util::SimTime arrival = busy_until + config.propagation_delay;
    dues.push_back(Due{arrival.ns(), key, std::move(ro.offer->frame),
                       ro.offer->payload, ro.offer->has_payload,
                       ro.offer->sender});
  }

  net::Backplane::Config config;
  bool certified = true;
  util::Rng rng;
  bool failed = false;
  util::SimTime busy_until = util::SimTime::zero();
  double busy_seconds = 0.0;
  net::Backplane::Counters counters;
  std::int64_t ser_min_ns = 0;     // one minimum Ethernet frame on the relay
  std::uint64_t ce_due_seq = 0;    // counter-equal synthetic due keys
  PayloadSlab slab;                // delivered payloads, recycled per window

  std::vector<Transition> transitions;  // sorted by prepare()
  std::size_t transition_cursor = 0;
  std::vector<std::int64_t> effective_fails;  // sorted fail times that flip state
  bool prepared = false;

  std::vector<Due> dues;  // FIFO by arrival, entries before head delivered
  std::size_t due_head = 0;
  std::int64_t replayed_to_ns = 0;

  std::vector<std::vector<Offer>> offers;  // per shard, worker-written
  std::vector<Resolved> scratch;           // merge scratch, capacity reused
  /// Per-shard delivery staging for flush(): filled by deliver(), handed to
  /// the engine in one add_foreign_batch per shard (capacity reused).
  std::vector<std::vector<sim::ShardedEngine::ForeignEvent>> staged;

  std::vector<std::vector<net::Nic*>> attached;  // per shard, attach order
  util::FlatMap<std::uint64_t, std::pair<std::uint32_t, net::Nic*>> by_mac;
  bool mac_collision = false;
};

// ---------------------------------------------------------------------------
// ShardedFleet
// ---------------------------------------------------------------------------

sim::ShardedEngine::Options ShardedFleet::engine_options(
    const ShardedFleetConfig& config) {
  if (config.fleet.relay_backplane.kind != net::MediumKind::kHub ||
      config.fleet.relay_backplane.jitter > util::Duration::zero()) {
    // The oracle replays the hub's monotone FIFO delivery stream; jittered or
    // switched relays would need per-port state it does not model.
    throw std::invalid_argument(
        "ShardedFleet requires a kHub relay backplane with zero jitter");
  }
  if (config.ordering == sim::Ordering::kCounterEqual &&
      config.fleet.relay_backplane.frame_loss_rate > 0.0) {
    // The loss RNG must be drawn in exact legacy transmit order; that order
    // is certified by the journaled merge, which the counter-equal lane
    // elides. Zero-loss relays (the paper's configuration) don't draw at all.
    throw std::invalid_argument(
        "counter-equal ordering requires a lossless relay "
        "(frame_loss_rate == 0)");
  }
  sim::ShardedEngine::Options options;
  std::uint32_t shards = config.shards == 0 ? 1u : config.shards;
  if (config.fleet.clusters > 0 && shards > config.fleet.clusters) {
    shards = config.fleet.clusters;
  }
  options.shards = shards;
  // Conservative lookahead: a frame offered at t anywhere cannot be delivered
  // before t + serialization + propagation > t + propagation.
  options.lookahead_ns = config.fleet.relay_backplane.propagation_delay.ns();
  options.trace_capacity = config.trace_capacity;
  options.check_windows = config.check_windows;
  options.ordering = config.ordering;
  options.max_window_ns = config.max_window_ns;
  options.record_window_spans = config.record_window_spans;
  return options;
}

ShardedFleet::ShardedFleet(ShardedFleetConfig config)
    : config_(config), engine_(engine_options(config_)) {
  assert(config_.fleet.clusters >= 1);
  const std::uint16_t k = config_.fleet.clusters;
  const std::uint16_t n = config_.fleet.nodes_per_cluster;
  const std::uint32_t shards = engine_.shard_count();

  ranges_ = partition_clusters(k, shards);
  shard_of_.assign(k, 0);
  for (std::uint32_t s = 0; s < shards; ++s) {
    for (std::uint16_t c = ranges_[s].first; c < ranges_[s].second; ++c) {
      shard_of_[c] = s;
    }
  }

  oracle_ = std::make_unique<RelayOracle>(
      config_.fleet.relay_backplane, shards,
      config_.ordering == sim::Ordering::kCertified);
  engine_.set_merge_hook([this](std::int64_t, std::int64_t end_ns) {
    oracle_->on_merge(*this, end_ns);
  });
  engine_.set_flush_hook([this](std::int64_t start_ns, std::int64_t end_ns) {
    oracle_->flush(*this, start_ns, end_ns);
  });
  engine_.set_next_pending_hook([this] { return oracle_->next_pending_ns(); });
  engine_.set_eot_hook(
      [this](std::int64_t bound_ns) { return oracle_->eot_ns(bound_ns); });

  // Everything below runs on this thread in the exact order Fleet's
  // constructor builds the legacy topology, with each shard-touching step
  // wrapped in a setup segment so trace emissions and setup ranks land at
  // their legacy positions.
  engine_.begin_setup();

  relay_stubs_.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    engine_.begin_setup_segment(s);
    auto stub = std::make_unique<net::Backplane>(
        engine_.simulator(s), net::kNetworkA, config_.fleet.relay_backplane);
    stub->set_boundary_hook(
        [this, s](const net::Nic& sender, const net::Frame& frame) {
          oracle_->capture(s, engine_, sender, frame);
        });
    relay_stubs_.push_back(std::move(stub));
    engine_.end_setup_segment();
  }

  clusters_.reserve(k);
  for (net::ClusterId c = 0; c < k; ++c) {
    engine_.begin_setup_segment(shard_of_[c]);
    clusters_.push_back(std::make_unique<net::ClusterNetwork>(
        engine_.simulator(shard_of_[c]),
        net::ClusterNetwork::Config{n, config_.fleet.backplane}));
    engine_.end_setup_segment();
  }

  // Per-shard share of the fleet-wide reservation Fleet makes up front.
  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::size_t local_k = ranges_[s].second - ranges_[s].first;
    engine_.simulator(s).reserve_events(
        local_k *
            core::DrsSystem::recommended_event_reserve(n, config_.fleet.drs) +
        16u * local_k + 1024u);
  }

  systems_.reserve(k);
  for (net::ClusterId c = 0; c < k; ++c) {
    engine_.begin_setup_segment(shard_of_[c]);
    systems_.push_back(
        std::make_unique<core::DrsSystem>(*clusters_[c], config_.fleet.drs));
    engine_.end_setup_segment();
  }

  gateways_.reserve(k);
  gateway_icmp_.reserve(k);
  gateway_timers_.reserve(k);
  for (net::ClusterId c = 0; c < k; ++c) {
    const std::uint32_t s = shard_of_[c];
    engine_.begin_setup_segment(s);
    const auto gateway_id = static_cast<net::NodeId>(0xF000u + c);
    auto host = std::make_unique<net::Host>(engine_.simulator(s), gateway_id);
    auto nic = std::make_unique<net::Nic>(gateway_id, net::kNetworkA,
                                          net::fleet_relay_mac(c),
                                          net::fleet_relay_ip(c), *host);
    relay_stubs_[s]->attach(*nic);
    oracle_->register_nic(s, nic.get());
    net::HostAssembler::install_nic(*host, net::kNetworkA, std::move(nic));
    host->routing_table().install(net::Route{
        .prefix = net::fleet_relay_subnet(),
        .prefix_len = net::kFleetRelayPrefixLen,
        .out_ifindex = net::kNetworkA,
        .next_hop = net::Ipv4Addr{},
        .metric = 1,
        .origin = net::RouteOrigin::kStatic,
    });
    gateways_.push_back(std::move(host));
    engine_.end_setup_segment();
  }
  for (net::ClusterId c = 0; c < k; ++c) {
    engine_.begin_setup_segment(shard_of_[c]);
    for (net::ClusterId peer = 0; peer < k; ++peer) {
      gateways_[c]->add_arp_entry(net::fleet_relay_ip(peer),
                                  net::fleet_relay_mac(peer));
    }
    engine_.end_setup_segment();
  }
  for (net::ClusterId c = 0; c < k; ++c) {
    const std::uint32_t s = shard_of_[c];
    engine_.begin_setup_segment(s);
    gateway_icmp_.push_back(
        std::make_unique<proto::IcmpService>(*gateways_[c]));
    gateway_icmp_.back()->reserve(16);
    proto::IcmpService* icmp = gateway_icmp_.back().get();
    const net::Ipv4Addr target =
        net::fleet_relay_ip(static_cast<net::ClusterId>((c + 1u) % k));
    const util::Duration timeout = config_.fleet.gateway_probe_timeout;
    gateway_timers_.push_back(std::make_unique<sim::PeriodicTimer>(
        engine_.simulator(s), config_.fleet.gateway_probe_interval,
        [icmp, target, timeout] {
          proto::PingOptions options;
          options.timeout = timeout;
          icmp->ping(target, options, [](const proto::PingResult&) {});
        }));
    engine_.end_setup_segment();
  }
}

ShardedFleet::~ShardedFleet() {
  // Symmetric teardown order with Fleet::stop(); the engine (and its parked
  // workers) outlives every component since it is declared first.
  for (auto& timer : gateway_timers_) timer->stop();
  for (auto& system : systems_) system->stop();
}

void ShardedFleet::start() {
  if (started_) return;
  for (net::ClusterId c = 0; c < config_.fleet.clusters; ++c) {
    engine_.begin_setup_segment(shard_of_[c]);
    systems_[c]->start();
    engine_.end_setup_segment();
  }
  for (net::ClusterId c = 0; c < config_.fleet.clusters; ++c) {
    engine_.begin_setup_segment(shard_of_[c]);
    if (!gateway_timers_[c]->running()) {
      // The probe timers are the fleet's only boundary seeds: every relay
      // offer descends from a gateway tick (pings and their timeouts) or
      // from a foreign delivery (echo replies), and both execute under the
      // boundary scope — ticks by this tag propagating through step(),
      // deliveries unconditionally. Everything else (DRS probes, cluster
      // failures) is cluster-internal and stays untagged, which is what
      // makes the adaptive window bound sharp.
      sim::BoundaryScope scope(engine_.simulator(shard_of_[c]));
      gateway_timers_[c]->start();
    }
    engine_.end_setup_segment();
  }
  started_ = true;
}

void ShardedFleet::schedule_component_failure(util::SimTime at,
                                              net::ComponentIndex index,
                                              bool failed) {
  assert(started_ && "schedule injections after start(), like the legacy run");
  // Every injection consumes one setup rank — the legacy run pushed one
  // injection event per call onto its single queue at exactly this point.
  const std::uint64_t rank = engine_.consume_setup_rank();
  const net::ComponentIndex cluster_span =
      config_.fleet.clusters * cluster_stride();
  if (index < cluster_span) {
    const auto c = static_cast<net::ClusterId>(index / cluster_stride());
    const net::ComponentIndex local = index % cluster_stride();
    const std::uint32_t s = shard_of_[c];
    engine_.force_setup_idx(s, rank);
    net::ClusterNetwork* network = clusters_[c].get();
    engine_.simulator(s).schedule_at(at, [network, local, failed] {
      network->set_component_failed(local, failed);
    });
    return;
  }
  const net::ComponentIndex tail = index - cluster_span;
  if (tail < config_.fleet.clusters) {
    const auto c = static_cast<net::ClusterId>(tail);
    const std::uint32_t s = shard_of_[c];
    engine_.force_setup_idx(s, rank);
    net::Nic* nic = &gateways_[c]->nic(net::kNetworkA);
    engine_.simulator(s).schedule_at(at,
                                     [nic, failed] { nic->set_failed(failed); });
    return;
  }
  assert(tail == config_.fleet.clusters);
  // The relay is oracle-owned shared state: no shard event at all. The
  // consumed rank orders the transition against same-time offers exactly as
  // the legacy injection event's rank ordered its set_failed call.
  oracle_->add_transition(at.ns(), rank, failed);
}

void ShardedFleet::run_until(util::SimTime deadline) {
  oracle_->prepare();
  engine_.run_until(deadline);
}

bool ShardedFleet::all_pristine() const {
  for (const auto& system : systems_) {
    if (!system->all_pristine()) return false;
  }
  return true;
}

std::uint64_t ShardedFleet::total_probes_sent() const {
  std::uint64_t total = 0;
  for (const auto& system : systems_) total += system->total_probes_sent();
  return total;
}

net::ComponentIndex ShardedFleet::component_count() const {
  return static_cast<net::ComponentIndex>(
      config_.fleet.clusters * cluster_stride() + config_.fleet.clusters + 1u);
}

bool ShardedFleet::component_failed(net::ComponentIndex index) const {
  const net::ComponentIndex cluster_span =
      config_.fleet.clusters * cluster_stride();
  if (index < cluster_span) {
    return clusters_.at(index / cluster_stride())
        ->component_failed(index % cluster_stride());
  }
  const net::ComponentIndex tail = index - cluster_span;
  if (tail < config_.fleet.clusters) {
    return gateways_.at(tail)->nic(net::kNetworkA).failed();
  }
  assert(tail == config_.fleet.clusters);
  return oracle_->failed;
}

void ShardedFleet::collect_metrics(obs::MetricRegistry& registry) const {
  registry.gauge("fleet.clusters").set(config_.fleet.clusters);
  registry.gauge("fleet.nodes_per_cluster").set(config_.fleet.nodes_per_cluster);

  std::int64_t flight_slots = 0;

  for (net::ClusterId c = 0; c < config_.fleet.clusters; ++c) {
    const core::DrsSystem& system = *systems_.at(c);
    std::uint64_t probes_sent = 0, probes_failed = 0, links_down = 0,
                  links_up = 0, relays_selected = 0, control_sent = 0,
                  route_installs = 0;
    for (net::NodeId i = 0; i < config_.fleet.nodes_per_cluster; ++i) {
      const core::DaemonMetrics& m = system.daemon(i).metrics();
      probes_sent += m.probes_sent;
      probes_failed += m.probes_failed;
      links_down += m.links_declared_down;
      links_up += m.links_declared_up;
      relays_selected += m.relays_selected;
      control_sent += m.control_messages_sent;
      route_installs += m.route_installs;
    }
    const auto set = [&](const char* name, std::uint64_t value) {
      registry.counter(obs::MetricRegistry::scoped("cluster", c, name))
          .add(static_cast<std::int64_t>(value));
    };
    set("probes_sent", probes_sent);
    set("probes_failed", probes_failed);
    set("links_declared_down", links_down);
    set("links_declared_up", links_up);
    set("relays_selected", relays_selected);
    set("control_messages_sent", control_sent);
    set("route_installs", route_installs);
    for (net::NetworkId net_id = 0; net_id < net::kNetworksPerHost; ++net_id) {
      flight_slots += static_cast<std::int64_t>(
          clusters_.at(c)->backplane(net_id).flight_slots());
    }
  }

  for (net::ClusterId c = 0; c < config_.fleet.clusters; ++c) {
    const proto::IcmpService& icmp = *gateway_icmp_.at(c);
    const auto set = [&](const char* name, std::uint64_t value) {
      registry.counter(obs::MetricRegistry::scoped("gateway", c, name))
          .add(static_cast<std::int64_t>(value));
    };
    set("echoes_sent", icmp.probes_sent());
    set("echoes_timed_out", icmp.probes_timed_out());
    set("echoes_answered", icmp.echo_requests_answered());
  }

  const net::Backplane::Counters& relay = oracle_->counters;
  registry.counter("relay.frames").add(static_cast<std::int64_t>(relay.frames));
  registry.counter("relay.bytes").add(static_cast<std::int64_t>(relay.bytes));
  registry.counter("relay.dropped_failed")
      .add(static_cast<std::int64_t>(relay.dropped_failed));
  registry.counter("relay.lost_in_flight")
      .add(static_cast<std::int64_t>(relay.lost_in_flight));
  // The oracle delivers directly (no flight pool) and the stubs never drive
  // their medium, so the relay's contribution is zero — matching the legacy
  // hub at zero jitter, whose FIFO stream bypasses the pool too.
  for (const auto& stub : relay_stubs_) {
    flight_slots += static_cast<std::int64_t>(stub->flight_slots());
  }
  registry.gauge("fleet.flight_slots").set(flight_slots);

  // Aggregated allocator-pressure metrics (same names as Fleet), plus
  // per-shard diagnostics under the shard.* prefix. Values are per-queue
  // implementation detail — the differential corpus strips sim./arena./shard.
  std::int64_t event_slots = 0, pending_events = 0;
  std::int64_t scheduled = 0, executed = 0;
  std::int64_t arena_chunks = 0, arena_bytes = 0, arena_allocs = 0,
               arena_freelist = 0, arena_oversize = 0, arena_resets = 0;
  for (std::uint32_t s = 0; s < engine_.shard_count(); ++s) {
    const sim::Simulator& sim = engine_.simulator(s);
    event_slots += static_cast<std::int64_t>(sim.event_slots());
    pending_events += static_cast<std::int64_t>(sim.pending_events());
    scheduled += static_cast<std::int64_t>(sim.scheduled_events());
    executed += static_cast<std::int64_t>(sim.executed_events());
    const util::Arena::Stats& arena = sim.arena().stats();
    arena_chunks += static_cast<std::int64_t>(arena.chunks);
    arena_bytes += static_cast<std::int64_t>(arena.bytes_reserved);
    arena_allocs += static_cast<std::int64_t>(arena.allocations);
    arena_freelist += static_cast<std::int64_t>(arena.freelist_hits);
    arena_oversize += static_cast<std::int64_t>(arena.oversize);
    arena_resets += static_cast<std::int64_t>(arena.resets);
    const auto shard_gauge = [&](const char* name, std::int64_t value) {
      registry.gauge(obs::MetricRegistry::scoped("shard", s, name)).set(value);
    };
    shard_gauge("clusters", ranges_[s].second - ranges_[s].first);
    shard_gauge("executed_events",
                static_cast<std::int64_t>(sim.executed_events()));
    shard_gauge("event_slots", static_cast<std::int64_t>(sim.event_slots()));
    shard_gauge("arena_chunks", static_cast<std::int64_t>(arena.chunks));
    shard_gauge("arena_bytes_reserved",
                static_cast<std::int64_t>(arena.bytes_reserved));
    shard_gauge("window_events",
                static_cast<std::int64_t>(engine_.shard_window_events(s)));
    // Wall-clock, not sim-time: how long this shard's worker sat parked at
    // the release barrier. Zero until the first genuinely concurrent window
    // (the single-active fast path runs inline on the coordinator).
    shard_gauge("barrier_wait_ns",
                static_cast<std::int64_t>(engine_.shard_barrier_wait_ns(s)));
  }
  registry.gauge("shard.count").set(engine_.shard_count());
  registry.gauge("shard.windows")
      .set(static_cast<std::int64_t>(engine_.windows_run()));
  registry.gauge("engine.windows_coalesced")
      .set(static_cast<std::int64_t>(engine_.windows_coalesced()));
  registry.gauge("sim.event_slots").set(event_slots);
  registry.gauge("sim.pending_events").set(pending_events);
  registry.counter("sim.scheduled_events").add(scheduled);
  registry.counter("sim.executed_events").add(executed);
  registry.gauge("arena.chunks").set(arena_chunks);
  registry.gauge("arena.bytes_reserved").set(arena_bytes);
  registry.counter("arena.allocations").add(arena_allocs);
  registry.counter("arena.freelist_hits").add(arena_freelist);
  registry.counter("arena.oversize").add(arena_oversize);
  registry.counter("arena.resets").add(arena_resets);
}

}  // namespace drs::cluster
