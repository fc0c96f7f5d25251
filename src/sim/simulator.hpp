// The discrete-event simulator: a monotonic clock plus the event queue.
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
#pragma once

#include <cstdint>
#include <span>

#include "sim/event_queue.hpp"
#include "util/arena.hpp"
#include "util/time.hpp"

namespace drs::obs {
class MetricRegistry;
class Tracer;
}

namespace drs::sim {

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

  /// Runs events with time <= deadline, then advances the clock to the
  /// deadline. Returns the number of events executed.
  std::uint64_t run_until(util::SimTime deadline);
  std::uint64_t run_for(util::Duration d) { return run_until(now_ + d); }
  /// Drains the queue completely (use only when event chains terminate).
  std::uint64_t run();
  /// Executes exactly one event if any is pending; returns whether one ran.
  bool step();
  /// Steps through events no later than `deadline` until `done()` holds;
  /// returns the instant it first did (the clock stays there), else max().
  template <class Done>
  util::SimTime step_until(util::SimTime deadline, Done done) {
    while (!done()) {
      if (queue_.empty() || queue_.next_time() > deadline) return util::SimTime::max();
      step();
    }
    return now_;
  }

  bool idle() const { return queue_.empty(); }
  std::size_t pending_events() const { return queue_.size(); }
  /// Observation hook: time of the earliest pending event, SimTime::max()
  /// when idle. Lets external drivers (the chaos campaign's latency probe)
  /// hop between activity instead of polling blind.
  util::SimTime next_event_time() const { return queue_.next_time(); }
  std::uint64_t executed_events() const { return executed_; }

  /// Observability: the per-simulation trace sink (nullptr = tracing off,
  /// the default — nothing above allocates or emits then). Attach before
  /// constructing the system under test; components latch it at start() (see
  /// docs/OBSERVABILITY.md). Non-owning, like everything else here.
  obs::Tracer* tracer() const { return tracer_; }
  void set_tracer(obs::Tracer* tracer) {
    tracer_ = tracer;
    queue_.set_tracer(tracer);
  }

  // -- sharded execution (see sim/sharded.hpp) ------------------------------
  // These hooks let a ShardedEngine drive one shard's simulator as a window
  // worker. Single-threaded runs call only peek_next.

  /// Earliest pending event's (time, key) without popping; false when idle.
  /// The engine orders a shard's local head against foreign arrivals by
  /// it, and core::ProbeScheduler runs a same-instant sweep cursor inline
  /// only when the cursor comes before it.
  bool peek_next(std::int64_t& t_ns, std::uint64_t& key) const {
    return queue_.peek(t_ns, key);
  }

  /// Boundary scope for the adaptive-lookahead protocol: while raised, every
  /// scheduled event is tagged as potentially boundary-reaching (able to hand
  /// traffic to the cross-shard relay), and the queue indexes it for
  /// next_boundary_ns(). step() re-raises the scope while executing a tagged
  /// event and execute_foreign() raises it unconditionally, so the tag
  /// propagates transitively from the setup-time seeds (gateway machinery,
  /// failure injections) through every descendant. See docs/SHARDING.md.
  void set_boundary_scope(bool on) { queue_.set_boundary_scope(on); }
  bool in_boundary_scope() const { return queue_.boundary_scope(); }
  /// Earliest pending boundary-tagged event, INT64_MAX when none.
  std::int64_t next_boundary_ns() const { return queue_.next_boundary_ns(); }

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

 private:
  /// An executing event's pushes inherit its entity; the switch is skipped
  /// when the entity does not change.
  void enter_entity_of(std::uint64_t key) {
    if (entity_of(key) != queue_.entity()) queue_.set_entity(entity_of(key));
  }

  util::SimTime now_ = util::SimTime::zero();
  EventQueue queue_;
  std::uint64_t executed_ = 0;
  obs::Tracer* tracer_ = nullptr;
  util::Arena owned_arena_;
  util::Arena* arena_ = &owned_arena_;
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
/// topology shares: sim.event_slots and sim.pending_events (gauges),
/// sim.scheduled_events and sim.executed_events (counters), and the arena's
/// chunks, bytes_reserved, allocations, freelist_hits, oversize and resets.
/// A single-queue run passes its one simulator, a sharded run every shard's.
void collect_metrics(std::span<const Simulator* const> sims,
                     obs::MetricRegistry& registry);

}  // namespace drs::sim
