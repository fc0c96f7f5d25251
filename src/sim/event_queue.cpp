#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace drs::sim {

std::uint64_t EventQueue::next_key() {
  ++total_scheduled_;
  const std::uint64_t counter = ++counters_[entity_];
  assert(counter >> kEntityShift == 0 && "per-entity event counter overflow");
  return (std::uint64_t{entity_} << kEntityShift) | counter;
}

std::uint64_t EventQueue::claim_rank() { return next_key(); }

void EventQueue::add_entities(Entity last) {
  assert(last <= kMaxEntity);
  // drs-lint: hotpath-purity-ok(amortized: grows once per new entity id, in setup scopes; runtime switches return to entities that already pushed)
  counters_.resize(last + std::size_t{1}, 0);
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].gen += 1;  // even -> odd: live
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  // drs-lint: hotpath-purity-ok(amortized: slot pool grows to peak pending-event count once, then recycles via the free list)
  slots_.emplace_back();
  slots_[slot].gen = 1;
  return slot;
}

void EventQueue::release_slot(std::uint32_t slot) {
  assert((slots_[slot].gen & 1u) == 0);
  slots_[slot].next_free = free_head_;
  free_head_ = slot;
}

void EventQueue::heap_push(std::vector<Entry>& heap, Entry entry) {
  // drs-lint: hotpath-purity-ok(amortized: each heap reaches its pending-event high-water mark once, capacity is reused)
  heap.push_back(entry);
  std::push_heap(heap.begin(), heap.end(), [](const Entry& a, const Entry& b) {
    if (a.time_ns != b.time_ns) return a.time_ns > b.time_ns;
    return a.seq > b.seq;
  });
}

EventQueue::Entry EventQueue::heap_pop(std::vector<Entry>& heap) {
  std::pop_heap(heap.begin(), heap.end(), [](const Entry& a, const Entry& b) {
    if (a.time_ns != b.time_ns) return a.time_ns > b.time_ns;
    return a.seq > b.seq;
  });
  const Entry entry = heap.back();
  heap.pop_back();
  return entry;
}

void EventQueue::drop_top() { release_slot(heap_pop(heap_).slot); }

EventId EventQueue::push(util::SimTime t, EventCallback fn) {
  return push_ranked(t, std::move(fn), next_key());
}

EventId EventQueue::push_ranked(util::SimTime t, EventCallback fn,
                                std::uint64_t rank) {
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.seq = rank;
  s.boundary = boundary_scope_;
  s.fn = std::move(fn);
  heap_push(heap_, Entry{t.ns(), rank, slot});
  if (boundary_scope_) heap_push(boundary_, Entry{t.ns(), rank, slot});
  ++live_;
  return make_id(slot, s.gen);
}

bool EventQueue::cancel(EventId id) {
  if (id == kInvalidEventId) return false;
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen) return false;
  // Live ids always carry an odd generation, so a match means pending.
  // The heap entry stays behind as a tombstone; the slot is reclaimed when
  // that entry reaches the top.
  slots_[slot].fn.reset();
  slots_[slot].gen += 1;  // odd -> even: dead
  --live_;
  return true;
}

bool EventQueue::is_pending(EventId id) const {
  if (id == kInvalidEventId) return false;
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  return slot < slots_.size() && slots_[slot].gen == gen;
}

util::SimTime EventQueue::next_time() const {
  std::int64_t t_ns = 0;
  std::uint64_t key = 0;
  return peek(t_ns, key) ? util::SimTime::from_ns(t_ns) : util::SimTime::max();
}

std::int64_t EventQueue::next_boundary_ns() const {
  // Entries go stale when their event executes, is cancelled, or the slot is
  // recycled; a key is attached to at most one pending event, so a (slot,
  // seq) match against a live slot identifies the original event. A
  // cancelled slot is not recycled before its tombstone leaves the main
  // heap, so that check cannot be fooled early. Dropping stale entries
  // changes nothing observable, hence the const_cast.
  auto* self = const_cast<EventQueue*>(this);
  while (!self->boundary_.empty()) {
    const Entry& top = self->boundary_.front();
    const Slot& s = self->slots_[top.slot];
    if ((s.gen & 1u) != 0 && s.seq == top.seq && s.boundary) {
      return top.time_ns;
    }
    self->heap_pop(self->boundary_);
  }
  return std::numeric_limits<std::int64_t>::max();
}

EventQueue::Popped EventQueue::pop() {
  assert(live_ > 0);
  drop_dead_tops();
  const Entry top = heap_pop(heap_);
  Slot& s = slots_[top.slot];
  Popped out{util::SimTime::from_ns(top.time_ns), make_id(top.slot, s.gen),
             std::move(s.fn), top.seq, s.boundary};
  s.gen += 1;  // odd -> even: executed
  release_slot(top.slot);
  --live_;
  return out;
}

}  // namespace drs::sim
