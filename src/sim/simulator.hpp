// The discrete-event simulator: a monotonic clock, the event queue, and the
// heads of its sorted sources.
//
// Single-threaded by design — determinism is the property everything above
// (protocol validation, Monte-Carlo replay) depends on. Parallelism happens
// across independent simulations (see drs::mc), or across shards that each
// own a Simulator (sim/sharded.hpp).
//
// Same-time events order by a key fixed at schedule time: (entity, counter)
// — see sim/event_queue.hpp. An executing event's pushes inherit its entity;
// EntityScope designates one for setup code; net::Host and net::Backplane
// re-enter the entity they were built in. A simulation that never designates
// an entity runs entirely in entity 0, where the key is the push sequence
// number and same-time events run FIFO.
//
// Sorted sources. An owner that already keeps its pending work sorted on
// (time, key), such as net::Backplane's delivery ring, registers a
// SortedSource and arms only its head; it does not push one wheel event per
// item. The simulator keeps the armed heads in a small 4-ary heap next to
// the wheel, with (time, key) stored inline, and step(), run_until(),
// step_until(), peek_next(), next_event_time() and idle() all see whichever
// comes first, the wheel's head or the earliest armed head. Keys come from
// claim_event_rank(), so a source head orders against wheel events exactly
// as the one wheel event per item it stands for would. A firing consumes
// its head: the owner arms its next head from inside the firing (or leaves
// the source disarmed), and a head re-armed that way replaces the consumed
// one in place, one sift through the heap instead of a pop and a push.
// Anything else that reads or changes the heap first drops a consumed head
// still waiting there, so while a source fires its stale head is never
// visible. A firing counts in executed_events(), and an armed head counts in
// pending_events(). The heap is sized when a source registers (the first
// kInlineSources live inside the Simulator), so arming never allocates.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/arena.hpp"
#include "util/time.hpp"

namespace drs::obs {
class MetricRegistry;
class Tracer;
}

namespace drs::sim {

class SortedSource;

/// Move-only cancellation token for a scheduled event. Default-constructed
/// (or fired, or moved-from) handles are inert. Non-owning of the simulator.
///
/// The handle is deliberately not copyable: a copy would let two tokens race
/// to cancel the same EventId, and — because ids are recycled tombstones from
/// the queue's point of view — the loser of that race could observe a stale
/// pending() answer. Ownership of the cancellation right moves with the
/// handle; moved-from handles answer pending() == false and cancel() == false.
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(class Simulator* sim, EventId id) : sim_(sim), id_(id) {}

  EventHandle(const EventHandle&) = delete;
  EventHandle& operator=(const EventHandle&) = delete;
  EventHandle(EventHandle&& other) noexcept
      : sim_(other.sim_), id_(other.id_) {
    other.release();
  }
  EventHandle& operator=(EventHandle&& other) noexcept {
    if (this != &other) {
      sim_ = other.sim_;
      id_ = other.id_;
      other.release();
    }
    return *this;
  }

  bool pending() const;
  /// Cancels if still pending; returns whether a cancellation happened.
  /// Idempotent: the first call releases the handle, so repeated calls (and
  /// calls through moved-from handles) return false without touching the
  /// queue.
  bool cancel();
  void release() { sim_ = nullptr; id_ = kInvalidEventId; }

 private:
  class Simulator* sim_ = nullptr;
  EventId id_ = kInvalidEventId;
};

class Simulator {
 public:
  Simulator() = default;
  /// Attaches an external arena instead of the simulator-owned one, so a
  /// driver running many simulations back to back (chaos runner, MC
  /// replications) can reset() it between runs and keep the warmed-up chunks.
  /// Non-owning; the arena must outlive every payload allocated from it.
  explicit Simulator(util::Arena* arena) {
    if (arena != nullptr) arena_ = arena;
  }

  util::SimTime now() const { return now_; }

  /// The per-simulation allocation arena: payloads, frames and other
  /// packet-lifetime objects come from here, not the heap (see
  /// docs/PERFORMANCE.md). Single-threaded, like the simulator itself.
  util::Arena& arena() { return *arena_; }
  const util::Arena& arena() const { return *arena_; }

  /// Pre-sizes the event queue for `n` concurrently pending events.
  void reserve_events(std::size_t n) { queue_.reserve(n); }
  /// Event-slot capacity (stable once the pending population peaks).
  std::size_t event_slots() const { return queue_.slot_count(); }
  std::uint64_t scheduled_events() const { return queue_.total_scheduled(); }

  /// Schedules at an absolute time; `t` must not be in the past.
  EventHandle schedule_at(util::SimTime t, EventCallback fn);
  /// Schedules `delay` after now; negative delays are clamped to zero.
  EventHandle schedule_after(util::Duration delay, EventCallback fn);

  /// Reserves a queue position "now" for an event scheduled later: same-time
  /// ties resolve as if the event had been pushed at the claim. See
  /// EventQueue::claim_rank; the probe sweep uses this to order its
  /// one-event-stands-for-many schedule as the per-probe events it stands
  /// for would be ordered.
  std::uint64_t claim_event_rank() { return queue_.claim_rank(); }
  /// Schedules at an absolute time under a rank from claim_event_rank(); the
  /// rank must be attached to at most one pending event at a time.
  EventHandle schedule_at_ranked(util::SimTime t, EventCallback fn,
                                 std::uint64_t rank);

  /// The scheduling entity new events are keyed under (see the file
  /// comment). Executing an event switches to the event's own entity.
  Entity entity() const { return queue_.entity(); }
  void set_entity(Entity entity) { queue_.set_entity(entity); }

  bool cancel(EventId id) { return queue_.cancel(id); }
  bool is_pending(EventId id) const;

  /// Runs events and source heads with time <= deadline, then advances the
  /// clock to the deadline. Returns the number executed.
  std::uint64_t run_until(util::SimTime deadline);
  std::uint64_t run_for(util::Duration d) { return run_until(now_ + d); }
  /// Drains the queue completely (use only when event chains terminate).
  std::uint64_t run();
  /// Executes exactly one event or source head if any is pending; returns
  /// whether one ran.
  bool step() { return execute_next(std::numeric_limits<std::int64_t>::max()); }
  /// Steps through events no later than `deadline` until `done()` holds;
  /// returns the instant it first did (the clock stays there), else max().
  template <class Done>
  util::SimTime step_until(util::SimTime deadline, Done done) {
    while (!done()) {
      if (!execute_next(deadline.ns())) return util::SimTime::max();
    }
    return now_;
  }

  /// No wheel event pending and no source armed.
  bool idle() const { return queue_.empty() && live_heads() == 0; }
  /// Pending wheel events plus armed source heads.
  std::size_t pending_events() const { return queue_.size() + live_heads(); }
  /// Observation hook: time of the earliest pending event or armed head,
  /// SimTime::max() when idle. Lets external callers (the chaos campaign's
  /// latency probe) hop between activity instead of polling blind.
  util::SimTime next_event_time() const;
  std::uint64_t executed_events() const { return executed_; }

  /// Observability: the per-simulation trace sink (nullptr = tracing off,
  /// the default — nothing above allocates or emits then). Attach before
  /// constructing the system under test; components latch it at start() (see
  /// docs/OBSERVABILITY.md). Non-owning, like everything else here.
  obs::Tracer* tracer() const { return tracer_; }
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // -- sharded execution (see sim/sharded.hpp) ------------------------------
  // These hooks let a ShardedEngine drive one shard's simulator as a window
  // worker. Single-threaded runs call only peek_next.

  /// (time, key) of the earliest pending event or armed source head,
  /// without executing it; false when idle. The engine orders a shard's
  /// local head against foreign arrivals by it, and core::ProbeScheduler
  /// runs a same-instant sweep cursor inline only when the cursor comes
  /// before it.
  bool peek_next(std::int64_t& t_ns, std::uint64_t& key) const;

  /// Boundary scope for the adaptive-lookahead protocol: while raised, every
  /// scheduled event is tagged as potentially boundary-reaching (able to hand
  /// traffic to the cross-shard relay), and the queue indexes it for
  /// next_boundary_ns(). Executing an event or a source head re-raises the
  /// scope when it is tagged, and execute_foreign() raises it
  /// unconditionally, so the tag propagates transitively from the
  /// setup-time seeds (gateway machinery, failure injections) through every
  /// descendant. A sorted source tags its items itself and reports whether
  /// it holds a tagged one (SortedSource::set_tagged). See docs/SHARDING.md.
  void set_boundary_scope(bool on) { queue_.set_boundary_scope(on); }
  bool in_boundary_scope() const { return queue_.boundary_scope(); }
  /// Earliest pending boundary-tagged event, INT64_MAX when none. A source
  /// that holds a tagged item counts at its head's time: a conservative
  /// bound, since the item can fire no earlier than the head.
  std::int64_t next_boundary_ns() const;

  /// Runs a cross-shard event at `t` under its ordering `key` as if it had
  /// been popped from the local queue: clock advance, the key's entity, and
  /// executed_events() accounting. The caller (the engine) orders these
  /// against local events. Foreign deliveries execute under the boundary
  /// scope: anything they schedule (e.g. an echo reply's timeout) may reach
  /// the relay again.
  template <typename Fn>
  void execute_foreign(util::SimTime t, std::uint64_t key, Fn&& fn) {
    now_ = t;
    enter_entity_of(key);
    queue_.set_boundary_scope(true);
    fn();
    queue_.set_boundary_scope(false);
    ++executed_;
  }

  /// Advances the clock to the end of a sync window (monotonic; the engine
  /// only moves it forward between events).
  void advance_clock(util::SimTime t) {
    if (t > now_) now_ = t;
  }

  /// Sources whose heads live inside the Simulator; registering more than
  /// this sizes a heap outside it (a fleet's clusters on one shard).
  static constexpr std::size_t kInlineSources = 4;

 private:
  friend class SortedSource;

  /// One armed source head, ordered on (t_ns, key).
  struct Head {
    std::int64_t t_ns = 0;
    std::uint64_t key = 0;
    SortedSource* source = nullptr;
  };
  /// Children per heap node: a fleet shard's 54 rings sit three levels
  /// deep instead of six, and each firing's re-armed head sinks through
  /// fewer dependent levels.
  static constexpr std::uint32_t kArity = 4;
  static bool before(const Head& a, const Head& b) {
    // Branch-free: which head wins is data, not something to predict.
    return (a.t_ns < b.t_ns) | ((a.t_ns == b.t_ns) & (a.key < b.key));
  }

  /// An executing event's pushes inherit its entity; the switch is skipped
  /// when the entity does not change.
  void enter_entity_of(std::uint64_t key) {
    if (entity_of(key) != queue_.entity()) queue_.set_entity(entity_of(key));
  }
  /// Executes the earliest of the wheel's head and the earliest armed head
  /// if it is due no later than `deadline_ns`; returns whether one ran.
  /// step(), run_until() and step_until() all execute through it.
  bool execute_next(std::int64_t deadline_ns);
  /// Armed heads, not counting a consumed one (see fired_top_).
  std::uint32_t live_heads() const { return armed_ - (fired_top_ ? 1u : 0u); }
  /// Drops a consumed head its owner did not re-arm. Const like
  /// EventQueue::next_time(): dropping it changes nothing observable.
  void settle() const {
    if (fired_top_) const_cast<Simulator*>(this)->drop_fired_top();
  }
  void drop_fired_top();
  /// Emits queue_high_water when pending_events() first reaches the next
  /// power of two, stamped with the instant just scheduled or armed.
  void note_population(std::int64_t at_ns);

  // Head-heap operations behind SortedSource (see the file comment).
  void add_source();
  void remove_source(SortedSource& source);
  void arm_source(SortedSource& source, std::int64_t t_ns, std::uint64_t key);
  void disarm_source(SortedSource& source);
  void remove_head(std::uint32_t at);
  void place_head(std::uint32_t at, const Head& head);
  void sift_up(std::uint32_t at);
  void sift_down(std::uint32_t at);

  util::SimTime now_ = util::SimTime::zero();
  EventQueue queue_;
  std::uint64_t executed_ = 0;
  obs::Tracer* tracer_ = nullptr;
  std::size_t high_water_next_ = 16;  // next population to report
  util::Arena owned_arena_;
  util::Arena* arena_ = &owned_arena_;
  // The armed heads, a kArity-ary min-heap in heads_[0, armed_). heads_ points
  // at inline_heads_ until more than kInlineSources register, then at
  // spilled_, which holds one entry per registered source.
  Head inline_heads_[kInlineSources];
  std::vector<Head> spilled_;
  Head* heads_ = inline_heads_;
  std::uint32_t armed_ = 0;
  std::uint32_t sources_ = 0;
  std::uint32_t tagged_sources_ = 0;
  /// heads_[0] was consumed by the firing in progress: its owner's re-arm
  /// replaces it in place, and settle() drops it otherwise.
  bool fired_top_ = false;
};

/// Inline-storage source callback: an owner captures `this` and reads its
/// own head.
using SourceCallback = util::InlineFunction<void(), 16>;

/// A sorted source's registration with its simulator (see the file
/// comment). The owner embeds it, constructed in the owner's constructor;
/// it registers on construction and unregisters, disarming, on
/// destruction, so a destroyed owner is never fired. Not movable: the heap
/// points at it.
class SortedSource {
 public:
  SortedSource(Simulator& sim, SourceCallback fire)
      : sim_(sim), fire_(std::move(fire)) {
    sim_.add_source();
  }
  ~SortedSource() { sim_.remove_source(*this); }
  SortedSource(const SortedSource&) = delete;
  SortedSource& operator=(const SortedSource&) = delete;

  /// Arms (or moves) the head to (t_ns, key); `key` is a rank from
  /// claim_event_rank() and t_ns is not in the past. The firing runs under
  /// the boundary scope iff `boundary`.
  void arm(std::int64_t t_ns, std::uint64_t key, bool boundary) {
    boundary_ = boundary;
    sim_.arm_source(*this, t_ns, key);
  }
  /// Removes the head, if armed.
  void disarm() { sim_.disarm_source(*this); }

  /// Whether the source holds a boundary-tagged item anywhere, not only at
  /// its head: next_boundary_ns() then counts the head's time.
  void set_tagged(bool tagged) {
    if (tagged == tagged_) return;
    tagged_ = tagged;
    if (tagged) {
      ++sim_.tagged_sources_;
    } else {
      --sim_.tagged_sources_;
    }
  }

 private:
  friend class Simulator;
  static constexpr std::uint32_t kUnarmed = 0xFFFFFFFFu;

  Simulator& sim_;
  SourceCallback fire_;
  std::uint32_t slot_ = kUnarmed;  // position in the head heap
  bool boundary_ = false;          // the armed head's tag
  bool tagged_ = false;
};

/// RAII entity scope: keys everything scheduled inside it under `entity`,
/// then restores the previous entity. Setup code that builds one entity's
/// components (a fleet cluster, the relay hub) wraps itself in one; Host and
/// Backplane use it to re-enter the entity they were built in. Switching to
/// the current entity is a no-op.
class EntityScope {
 public:
  EntityScope(Simulator& sim, Entity entity)
      : sim_(sim), prev_(sim.entity()) {
    if (entity != prev_) sim_.set_entity(entity);
  }
  ~EntityScope() {
    if (sim_.entity() != prev_) sim_.set_entity(prev_);
  }
  EntityScope(const EntityScope&) = delete;
  EntityScope& operator=(const EntityScope&) = delete;

 private:
  Simulator& sim_;
  Entity prev_;
};

/// RAII boundary scope: raised for the duration of a setup segment that
/// constructs boundary-reaching machinery (gateway hosts, probe timers,
/// failure injections), so their initial events are tagged.
class BoundaryScope {
 public:
  explicit BoundaryScope(Simulator& sim)
      : sim_(sim), prev_(sim.in_boundary_scope()) {
    sim_.set_boundary_scope(true);
  }
  ~BoundaryScope() { sim_.set_boundary_scope(prev_); }
  BoundaryScope(const BoundaryScope&) = delete;
  BoundaryScope& operator=(const BoundaryScope&) = delete;

 private:
  Simulator& sim_;
  bool prev_;
};

/// Reports the allocator pressure of `sims`, summed, under the names every
/// topology shares: sim.event_slots (wheel slots) and sim.pending_events
/// (wheel events plus armed source heads) (gauges),
/// sim.scheduled_events and sim.executed_events (counters), and the arena's
/// chunks, bytes_reserved, allocations, freelist_hits, oversize and resets.
/// A single-queue run passes its one simulator, a sharded run every shard's.
void collect_metrics(std::span<const Simulator* const> sims,
                     obs::MetricRegistry& registry);

}  // namespace drs::sim
