#include "cluster/partition.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <optional>
#include <stdexcept>

#include "proto/icmp.hpp"
#include "util/flat_map.hpp"

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
// parked at the window barrier). At every window merge the coordinator sorts
// the window's offers into single-queue order, interleaves them with the
// registered failure transitions by (time, key), and hands each to its
// net::Backplane::Medium — the model Fleet's relay Backplane transmits
// through, built from the same config and seed — so FIFO serialization, the
// backlog bound, the loss draws (in the same order) and the failure
// accounting are the hub's own. Successful
// offers become pending Dues keyed from the hub entity's counter; the flush
// hook releases each Due as a foreign event once its arrival falls inside
// the upcoming window — unless an effective failure lands at or before the
// arrival, in which case the Due stays queued and is counted lost when the
// replay reaches that transition.
// ---------------------------------------------------------------------------
struct ShardedFleet::RelayOracle {
  /// One frame offered to the relay, captured at the shard boundary with the
  /// key of the event that offered it. The ICMP payload rides by value
  /// (frame.packet.payload is detached) so the capture path never
  /// heap-allocates; `wire_bytes` is latched before the detach for the
  /// replay's serialization math.
  struct Offer {
    std::int64_t t_ns = 0;
    std::uint64_t event_key = 0;
    std::uint32_t wire_bytes = 0;
    net::Frame frame;
    proto::IcmpPayload payload;
    bool has_payload = false;
    net::MacAddr sender{};
  };

  /// A relay set_failed scheduled up front, keyed like the hub-entity
  /// injection event Fleet pushes for it.
  struct Transition {
    std::int64_t t_ns = 0;
    std::uint64_t key = 0;
    bool failed = false;
  };

  /// A delivery in flight: Fleet's hub delivery-ring entry. Payload by value,
  /// like Offer; deliver() places it into the slab.
  struct Due {
    std::int64_t arrival_ns = 0;
    std::uint64_t key = 0;
    net::Frame frame;
    proto::IcmpPayload payload;
    bool has_payload = false;
    net::MacAddr sender{};
  };

  /// Replay position of one offer: single-queue order is (time, offering
  /// event's key), then shard — the split pieces of one broadcast delivery
  /// share a key and reach receivers in attach order, which is shard order —
  /// then capture order within the shard.
  struct Ordered {
    std::int64_t t_ns = 0;
    std::uint64_t event_key = 0;
    std::uint32_t shard = 0;
    std::uint32_t index = 0;

    friend bool operator<(const Ordered& a, const Ordered& b) {
      if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
      if (a.event_key != b.event_key) return a.event_key < b.event_key;
      if (a.shard != b.shard) return a.shard < b.shard;
      return a.index < b.index;
    }
  };

  RelayOracle(const net::Backplane::Config& relay_config, std::uint32_t shards)
      : hub(relay_config, net::kNetworkA),
        offers(shards),
        staged(shards),
        attached(shards) {}

  /// The hub entity's next key: what Fleet's relay claims (a delivery) or
  /// pushes (a failure injection) at the same point of the replay.
  std::uint64_t next_hub_key() {
    return (std::uint64_t{kRelayEntity} << sim::kEntityShift) | ++hub_counter;
  }

  void register_nic(std::uint32_t shard, net::Nic* nic) {
    attached[shard].push_back(nic);
    if (!by_mac.insert(nic->mac().value(), {shard, nic})) mac_collision = true;
  }

  /// Boundary-hook path: runs on shard `shard`'s worker thread, touching only
  /// that shard's simulator and its private offer buffer. Allocation free:
  /// the ICMP payload is copied by value and the frame's pointer detached.
  void capture(std::uint32_t shard, sim::ShardedEngine& engine,
               const net::Nic& sender, const net::Frame& frame) {
    assert(engine.simulator(shard).in_boundary_scope() &&
           "relay offers must come from boundary-tagged events (the adaptive "
           "window bound counts only tagged causes; see docs/SHARDING.md)");
    Offer offer;
    offer.t_ns = engine.simulator(shard).now().ns();
    offer.event_key = engine.executing_key(shard);
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
    offers[shard].push_back(std::move(offer));
  }

  void add_transition(std::int64_t t_ns, bool fail) {
    transitions.push_back(Transition{t_ns, next_hub_key(), fail});
  }

  /// Sorts transitions and precomputes the state-flipping failure times.
  /// Transitions only interact with failed_ among themselves (offers never
  /// write it), so effectiveness is decidable up front — which is what lets
  /// the flush hook prove a Due will survive until its arrival.
  void prepare() {
    if (prepared) return;
    prepared = true;
    std::sort(transitions.begin(), transitions.end(),
              [](const Transition& a, const Transition& b) {
                if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
                return a.key < b.key;
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
  /// transition can reset the serialization clock). The hub then serializes
  /// it no earlier than max(cause, busy') where busy' >= min(busy_until, next
  /// transition time) — set_failed is the only writer that moves busy_until
  /// backwards, to exactly the transition's time — and the arrival adds at
  /// least one minimum frame time plus propagation on top.
  std::int64_t eot_ns(std::int64_t engine_bound_ns) const {
    const std::int64_t never = std::numeric_limits<std::int64_t>::max();
    const std::int64_t cause = std::min(engine_bound_ns, next_pending_ns());
    const std::int64_t margin =
        hub.serialization_time(net::kMinEthFrameBytes).ns() +
        hub.config().propagation_delay.ns();
    if (cause >= never - margin) return never;
    std::int64_t ser_start = hub.busy_until().ns();
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

  /// One Fleet delivery-stream pop, re-expressed as per-shard foreign
  /// events under the Due's key. Broadcast fan-out order is preserved end to
  /// end: within a shard by the attach-order NIC walk, across shards by the
  /// shard tie-break of the trace merge and the offer replay (shards own
  /// ascending cluster ranges, which is exactly Fleet's attach order).
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
  /// its end, in global (time, key) order — the order Fleet's single queue
  /// issues its transmit() calls and set_failed() events. A transition's
  /// hub key orders it before every same-time offer: offers come from
  /// cluster events (later entities) or from hub deliveries, whose keys were
  /// drawn at runtime, after every transition's. A failure transition drops
  /// the live Dues as lost, like the hub's delivery ring; a surviving offer
  /// becomes a Due under the next hub key, where the hub claims its rank.
  void on_merge(ShardedFleet& fleet, std::int64_t end_ns) {
    scratch.clear();
    for (std::uint32_t s = 0; s < fleet.engine_.shard_count(); ++s) {
      for (std::uint32_t i = 0; i < offers[s].size(); ++i) {
        const Offer& offer = offers[s][i];
        scratch.push_back(Ordered{offer.t_ns, offer.event_key, s, i});
      }
    }
    std::sort(scratch.begin(), scratch.end());

    std::size_t oi = 0;
    for (;;) {
      const bool more_tr = transition_cursor < transitions.size() &&
                           transitions[transition_cursor].t_ns < end_ns;
      const bool more_of = oi < scratch.size();
      if (!more_tr && !more_of) break;
      bool take_tr = more_tr;
      if (more_tr && more_of) {
        const Transition& tr = transitions[transition_cursor];
        const Ordered& next = scratch[oi];
        take_tr = tr.t_ns != next.t_ns ? tr.t_ns < next.t_ns
                                       : tr.key < next.event_key;
      }
      if (take_tr) {
        const Transition& tr = transitions[transition_cursor++];
        if (hub.set_failed(tr.failed, util::SimTime::from_ns(tr.t_ns),
                           dues.size() - due_head)) {
          dues.clear();
          due_head = 0;
        }
      } else {
        Offer& offer = offers[scratch[oi].shard][scratch[oi].index];
        ++oi;
        if (const std::optional<util::SimTime> arrival =
                hub.offer(util::SimTime::from_ns(offer.t_ns), offer.wire_bytes)) {
          dues.push_back(Due{arrival->ns(), next_hub_key(),
                             std::move(offer.frame), offer.payload,
                             offer.has_payload, offer.sender});
        }
      }
    }
    replayed_to_ns = end_ns;
    for (auto& buffer : offers) buffer.clear();  // capacity retained
  }

  net::Backplane::Medium hub;      // the relay hub's state and rules
  std::uint64_t hub_counter = 0;   // the hub entity's key counter
  PayloadSlab slab;                // delivered payloads, recycled per window

  std::vector<Transition> transitions;  // sorted by prepare()
  std::size_t transition_cursor = 0;
  std::vector<std::int64_t> effective_fails;  // sorted fail times that flip state
  bool prepared = false;

  std::vector<Due> dues;  // FIFO by arrival, entries before head delivered
  std::size_t due_head = 0;
  std::int64_t replayed_to_ns = 0;

  std::vector<std::vector<Offer>> offers;  // per shard, worker-written
  std::vector<Ordered> scratch;            // merge scratch, capacity reused
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
    // The oracle replays the hub's arrivals as one FIFO stream; jittered or
    // switched relays would need per-port state it does not model.
    throw std::invalid_argument(
        "ShardedFleet requires a kHub relay backplane with zero jitter");
  }
  sim::ShardedEngine::Options options;
  std::uint32_t shards = config.shards == 0 ? 1u : config.shards;
  if (shards > config.fleet.clusters) shards = config.fleet.clusters;
  options.shards = shards;
  // Conservative lookahead: a frame offered at t anywhere cannot be delivered
  // before t + serialization + propagation > t + propagation.
  options.lookahead_ns = config.fleet.relay_backplane.propagation_delay.ns();
  options.trace_capacity = config.trace_capacity;
  options.max_window_ns = config.max_window_ns;
  options.record_window_spans = config.record_window_spans;
  return options;
}

std::vector<std::unique_ptr<net::Backplane>> ShardedFleet::build_relay_stubs() {
  // Built first, like Fleet's relay, under the hub's entity; a segment per
  // shard so any trace emission lands where Fleet's tracer records it.
  std::vector<std::unique_ptr<net::Backplane>> stubs;
  stubs.reserve(engine_.shard_count());
  for (std::uint32_t s = 0; s < engine_.shard_count(); ++s) {
    engine_.begin_setup_segment(s);
    const sim::EntityScope scope(engine_.simulator(s), kRelayEntity);
    auto stub = std::make_unique<net::Backplane>(
        engine_.simulator(s), net::kNetworkA, config_.fleet.relay_backplane);
    stub->set_boundary_hook(
        [this, s](const net::Nic& sender, const net::Frame& frame) {
          oracle_->capture(s, engine_, sender, frame);
        });
    stubs.push_back(std::move(stub));
    engine_.end_setup_segment();
  }
  return stubs;
}

ShardedFleet::ShardedFleet(ShardedFleetConfig config)
    : config_(config),
      engine_(engine_options(config_)),
      ranges_(partition_clusters(config_.fleet.clusters, engine_.shard_count())),
      oracle_(std::make_unique<RelayOracle>(config_.fleet.relay_backplane,
                                            engine_.shard_count())),
      relay_stubs_(build_relay_stubs()),
      members_(config_.fleet, [this](net::ClusterId c, const SetupStep& step) {
        const std::uint32_t s = shard_of_cluster(c);
        engine_.begin_setup_segment(s);
        step(ClusterSite{engine_.simulator(s), *relay_stubs_[s]});
        engine_.end_setup_segment();
      }) {
  for (net::ClusterId c = 0; c < config_.fleet.clusters; ++c) {
    oracle_->register_nic(shard_of_cluster(c),
                          &members_.gateway(c).nic(net::kNetworkA));
  }
  engine_.set_merge_hook([this](std::int64_t, std::int64_t end_ns) {
    oracle_->on_merge(*this, end_ns);
  });
  engine_.set_flush_hook([this](std::int64_t start_ns, std::int64_t end_ns) {
    oracle_->flush(*this, start_ns, end_ns);
  });
  engine_.set_next_pending_hook([this] { return oracle_->next_pending_ns(); });
  engine_.set_eot_hook(
      [this](std::int64_t bound_ns) { return oracle_->eot_ns(bound_ns); });
}

ShardedFleet::~ShardedFleet() = default;

std::uint32_t ShardedFleet::shard_of_cluster(net::ClusterId c) const {
  std::uint32_t s = 0;
  while (c >= ranges_.at(s).second) ++s;
  return s;
}

void ShardedFleet::start() {
  if (started_) return;
  // The gateway timers are the fleet's only boundary seeds: every relay
  // offer descends from a gateway tick (pings and their timeouts) or from a
  // foreign delivery (echo replies), and both execute under the boundary
  // scope — ticks by this tag propagating through step(), deliveries
  // unconditionally. Everything else (DRS probes, cluster failures) is
  // cluster-internal and stays untagged, which is what makes the adaptive
  // window bound sharp.
  members_.start(true);
  started_ = true;
}

void ShardedFleet::schedule_component_failure(util::SimTime at,
                                              net::ComponentIndex index,
                                              bool failed) {
  if (!started_ || oracle_->prepared) {
    // The oracle must know every relay transition before its first replay.
    throw std::logic_error(
        "ShardedFleet: schedule injections after start() and before the "
        "first run_until()");
  }
  const ComponentMap::Part part = members_.components().decode(index);
  if (part.kind == ComponentMap::Part::Kind::kRelay) {
    // The relay is oracle-owned shared state: no shard event at all. The
    // transition draws the hub key Fleet's injection event is pushed under.
    oracle_->add_transition(at.ns(), failed);
    return;
  }
  // The setup segment drains the push's queue_high_water emission, if any,
  // at the point Fleet's tracer records it.
  members_.schedule_failure(at, part, failed);
}

void ShardedFleet::run_until(util::SimTime deadline) {
  oracle_->prepare();
  engine_.run_until(deadline);
}

void ShardedFleet::collect_metrics(obs::MetricRegistry& registry) const {
  members_.collect_metrics(registry, oracle_->hub.counters());

  std::vector<const sim::Simulator*> sims;
  for (std::uint32_t s = 0; s < engine_.shard_count(); ++s) {
    const sim::Simulator& sim = engine_.simulator(s);
    sims.push_back(&sim);
    const util::Arena::Stats& arena = sim.arena().stats();
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
  sim::collect_metrics(sims, registry);
}

}  // namespace drs::cluster
