// Pending-event set for the discrete-event engine: one binary min-heap over
// (time, key), with a generation-counted slot table behind it.
//
//   push   appends a (time, key, slot) entry and sifts it up — O(log n).
//   pop    drops cancelled entries off the top, then pops the earliest live
//          one — O(log n).
//   cancel flips a generation bit in the slot table — O(1), no hashing. The
//          heap entry stays behind as a tombstone; its slot is freed when
//          the tombstone reaches the top.
//
// Only timers live here: each daemon's cycle tick, the probe sweep's send
// and timeout events, discovery and relay-route timers. Frame deliveries,
// almost all of a run's events, are sorted sources the Simulator merges
// beside the queue (sim/simulator.hpp), so the heap stays small: its slot
// table peaks at 92 entries in Fig. 1's N = 90 anchor cluster and at 324 in
// the 27-cluster fleet (docs/PERFORMANCE.md §1).
//
// Ordering is (time, key), where the 64-bit key is fixed when the event is
// scheduled: (entity, per-entity counter), entity in the high 18 bits. An
// entity is whatever the caller designates as an independent scheduler — the
// fleet makes each cluster and the relay hub one — and every push or rank
// claim draws the next value of the current entity's counter. Same-time
// events of one entity therefore run FIFO, and entities order by id. A queue
// that never switches entity runs entirely in entity 0, where the key is the
// plain push sequence number, so protocol races (e.g. two ROUTE_OFFERs in
// the same tick) resolve identically on every run and golden traces are
// byte-stable (test_sim_queue_property pins the order against a reference
// model). Because a key depends only on its entity's own history, sharded
// engines that give each entity's events to one shard compute identical
// keys locally (see sim/sharded.hpp).
//
// Event state lives in a generation-counted slot table indexed by the low
// half of the EventId; the high half carries the slot's generation, so
// is_pending/cancel are two array reads and stale ids can never alias a
// recycled slot. Callbacks are util::InlineFunction — scheduling an event
// performs no heap allocation once the slot table and heap have reached
// their peak (see docs/PERFORMANCE.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/inline_function.hpp"
#include "util/time.hpp"

namespace drs::sim {

/// Inline-storage event callback: captures above 48 bytes fail to compile
/// (static_assert in InlineFunction) instead of silently heap-allocating.
/// Pool oversized state and capture an index instead.
using EventCallback = util::InlineFunction<void(), 48>;
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

/// Scheduling entity: the owner of one same-time ordering counter. 0 is the
/// default for code that never designates one.
using Entity = std::uint32_t;

/// Bits of an ordering key below the entity id: the per-entity counter
/// (~7e13 events). The 18 entity bits above it hold the default entity, the
/// fleet's relay hub and one entity per uint16 cluster id.
inline constexpr int kEntityShift = 46;
inline constexpr Entity kMaxEntity = (Entity{1} << (64 - kEntityShift)) - 1;

constexpr Entity entity_of(std::uint64_t key) {
  return static_cast<Entity>(key >> kEntityShift);
}

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `t` under the next key of the current
  /// entity; returns a cancellation id.
  EventId push(util::SimTime t, EventCallback fn);

  /// Consumes and returns the current entity's next key without scheduling
  /// anything. A claimed rank can later be attached to an event with
  /// push_ranked(), making that event tie-break at equal times exactly as if
  /// it had been pushed when the rank was claimed. The probe sweep is built
  /// on it: one pending event stands in for many per-probe events, and each
  /// firing occupies the queue position its per-probe event would hold
  /// (tests/golden/probe_corpus.txt pins the resulting order).
  std::uint64_t claim_rank();

  /// Schedules `fn` at `t` under a key from claim_rank() instead of a fresh
  /// one. The key must be attached to at most one pending event at a time.
  EventId push_ranked(util::SimTime t, EventCallback fn, std::uint64_t rank);

  /// The entity whose counter push() and claim_rank() draw from.
  Entity entity() const { return entity_; }
  void set_entity(Entity entity) {
    if (entity >= counters_.size()) add_entities(entity);
    entity_ = entity;
  }

  /// Cancels a pending event. Returns false if the id is kInvalidEventId,
  /// unknown, already executed, or already cancelled.
  bool cancel(EventId id);

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Time of the earliest live event; SimTime::max() when empty.
  util::SimTime next_time() const;

  struct Popped {
    util::SimTime time;
    EventId id = kInvalidEventId;
    EventCallback fn;
    std::uint64_t key = 0;  // (entity, counter) ordering key
    bool boundary = false;  // pushed under a boundary scope (see below)
  };
  /// Removes and returns the earliest live event. Precondition: !empty().
  Popped pop();

  /// Time and key of the earliest live event without removing it. Returns
  /// false when empty. The simulator merges the queue with its sorted
  /// sources by it, once per step.
  bool peek(std::int64_t& t_ns, std::uint64_t& key) const {
    drop_dead_tops();
    if (heap_.empty()) return false;
    t_ns = heap_.front().time_ns;
    key = heap_.front().seq;
    return true;
  }

  /// Every push and rank claim, across all entities.
  std::uint64_t total_scheduled() const { return total_scheduled_; }

  /// True iff the id is scheduled and neither executed nor cancelled.
  /// kInvalidEventId is never pending.
  bool is_pending(EventId id) const;

  /// Slot-table size: the peak of pending events plus tombstones not yet
  /// freed, stable once that peaks (the zero-allocation test asserts on
  /// this).
  std::size_t slot_count() const { return slots_.size(); }

  /// Boundary tagging for the sharded engine's adaptive lookahead. While the
  /// scope flag is set (Simulator raises it during setup segments that build
  /// boundary-reaching machinery, while executing a boundary-tagged event,
  /// and while executing a foreign delivery), every push is tagged and
  /// entered into a side min-heap, so next_boundary_ns() can answer "when is
  /// the earliest event that could emit cross-shard traffic?" without
  /// scanning the queue. Tags propagate transitively: a tagged parent's
  /// children are tagged. Legacy single-queue runs never raise the scope and
  /// pay one predictable branch per push.
  void set_boundary_scope(bool on) { boundary_scope_ = on; }
  bool boundary_scope() const { return boundary_scope_; }

  /// Earliest live boundary-tagged event's time, or INT64_MAX when none.
  /// Lazily drops stale side-heap entries (executed/cancelled/recycled
  /// slots), which changes nothing observable, hence const.
  std::int64_t next_boundary_ns() const;

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Slot {
    std::uint64_t seq = 0;       // (entity, counter) key; breaks same-time ties
    std::uint32_t gen = 0;       // odd = live, even = dead; bumps on each flip
    std::uint32_t next_free = kNoSlot;
    bool boundary = false;       // pushed under the boundary scope
    EventCallback fn;
  };

  /// Ordering key + slot index, copied flat so heap sifts touch no slots.
  struct Entry {
    std::int64_t time_ns;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static EventId make_id(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  /// Frees the slots of cancelled events at the top of the heap, so its
  /// front is the earliest live event. Tombstones are not observable, so
  /// every reader may drop them, const or not.
  void drop_dead_tops() const {
    while (!heap_.empty() && (slots_[heap_.front().slot].gen & 1u) == 0) {
      const_cast<EventQueue*>(this)->drop_top();
    }
  }
  void drop_top();
  std::uint64_t next_key();
  void add_entities(Entity last);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void heap_push(std::vector<Entry>& heap, Entry entry);
  Entry heap_pop(std::vector<Entry>& heap);

  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;

  std::vector<Entry> heap_;      // min-heap over (time, seq), tombstones too
  std::vector<Entry> boundary_;  // min-heap over live boundary-tagged events

  std::size_t live_ = 0;
  std::uint64_t total_scheduled_ = 0;
  // Key counters indexed by entity id; entity 0 always exists.
  std::vector<std::uint64_t> counters_ = std::vector<std::uint64_t>(1);
  Entity entity_ = 0;
  bool boundary_scope_ = false;
};

}  // namespace drs::sim
