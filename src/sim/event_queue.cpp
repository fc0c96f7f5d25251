#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
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

void EventQueue::heap_push(std::vector<Ready>& heap, Ready entry) {
  // drs-lint: hotpath-purity-ok(amortized: ready heap reaches its per-tick high-water mark once, capacity is reused)
  heap.push_back(entry);
  std::push_heap(heap.begin(), heap.end(), [](const Ready& a, const Ready& b) {
    if (a.time_ns != b.time_ns) return a.time_ns > b.time_ns;
    return a.seq > b.seq;
  });
}

EventQueue::Ready EventQueue::heap_pop(std::vector<Ready>& heap) {
  std::pop_heap(heap.begin(), heap.end(), [](const Ready& a, const Ready& b) {
    if (a.time_ns != b.time_ns) return a.time_ns > b.time_ns;
    return a.seq > b.seq;
  });
  const Ready entry = heap.back();
  heap.pop_back();
  return entry;
}

void EventQueue::place(std::uint32_t slot, std::int64_t t, std::uint64_t seq) {
  if (t < horizon_) {
    heap_push(ready_, Ready{t, seq, slot});
    return;
  }
  const auto ut = static_cast<std::uint64_t>(t);
  const auto uh = static_cast<std::uint64_t>(horizon_);
  for (int level = 0; level < kLevels; ++level) {
    const int shift = shift_for(level);
    const std::uint64_t bucket = ut >> shift;
    if (bucket - (uh >> shift) < kBuckets) {
      const auto b = static_cast<std::size_t>(bucket & (kBuckets - 1));
      // drs-lint: hotpath-purity-ok(amortized: wheel buckets keep their capacity across rotations)
      buckets_[level][b].push_back(slot);
      occupied_[level] |= std::uint64_t{1} << b;
      ++wheel_count_;
      return;
    }
  }
  heap_push(overflow_, Ready{t, seq, slot});
}

void EventQueue::drain_overflow() {
  // Re-place far-future events once they fit under the wheel's coverage.
  const int top_shift = shift_for(kLevels - 1);
  while (!overflow_.empty()) {
    const std::int64_t t = overflow_.front().time_ns;
    const std::uint64_t delta = (static_cast<std::uint64_t>(t) >> top_shift) -
                                (static_cast<std::uint64_t>(horizon_) >> top_shift);
    if (delta >= kBuckets) return;
    const Ready entry = heap_pop(overflow_);
    Slot& s = slots_[entry.slot];
    if ((s.gen & 1u) == 0) {
      release_slot(entry.slot);
      continue;
    }
    place(entry.slot, entry.time_ns, entry.seq);
  }
}

void EventQueue::collect() {
  // Precondition: ready_ is empty and a physical entry exists somewhere.
  // Postcondition when it returns with ready_ non-empty: every live event
  // with time < horizon_ is in ready_, and every wheel/overflow entry is
  // >= horizon_ — so the ready top is the global minimum.
  for (;;) {
    drain_overflow();
    if (wheel_count_ == 0) {
      if (overflow_.empty()) return;  // all remaining entries already ready
      // Only far-future events remain: jump the horizon so they re-place.
      horizon_ = std::max(horizon_, overflow_.front().time_ns);
      continue;
    }

    // Earliest occupied bucket window across levels. Ties go to the coarser
    // level: its bucket must cascade before the finer one may dump, or its
    // contents would be stranded past the new horizon.
    int best_level = -1;
    std::int64_t best_start = 0;
    std::size_t best_bucket = 0;
    for (int level = 0; level < kLevels; ++level) {
      if (occupied_[level] == 0) continue;
      const int shift = shift_for(level);
      const std::uint64_t h = static_cast<std::uint64_t>(horizon_) >> shift;
      const std::uint64_t rot = std::rotr(occupied_[level], static_cast<int>(h & 63));
      const std::uint64_t abs_bucket =
          h + static_cast<std::uint64_t>(std::countr_zero(rot));
      const auto start = static_cast<std::int64_t>(abs_bucket << shift);
      if (best_level < 0 || start <= best_start) {
        best_level = level;
        best_start = start;
        best_bucket = static_cast<std::size_t>(abs_bucket & (kBuckets - 1));
      }
    }

    std::vector<std::uint32_t>& bucket = buckets_[best_level][best_bucket];
    occupied_[best_level] &= ~(std::uint64_t{1} << best_bucket);
    wheel_count_ -= bucket.size();

    if (best_level == 0) {
      for (const std::uint32_t slot : bucket) {
        Slot& s = slots_[slot];
        if ((s.gen & 1u) == 0) {
          release_slot(slot);  // cancelled while parked; reclaim now
          continue;
        }
        heap_push(ready_, Ready{s.time_ns, s.seq, slot});
      }
      bucket.clear();
      horizon_ = std::max(
          horizon_, best_start + (std::int64_t{1} << kGranuleShift));
      if (!ready_.empty()) return;
      continue;  // the bucket held only tombstones; keep walking
    }

    // Cascade a coarser bucket: its window has arrived, so every entry now
    // fits a finer level (or the ready heap, never this same bucket).
    horizon_ = std::max(horizon_, best_start);
    const std::size_t count = bucket.size();
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint32_t slot = bucket[i];
      Slot& s = slots_[slot];
      if ((s.gen & 1u) == 0) {
        release_slot(slot);
        continue;
      }
      place(slot, s.time_ns, s.seq);
    }
    bucket.clear();
  }
}

EventId EventQueue::push(util::SimTime t, EventCallback fn) {
  return push_ranked(t, std::move(fn), next_key());
}

EventId EventQueue::push_ranked(util::SimTime t, EventCallback fn,
                                std::uint64_t rank) {
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.time_ns = t.ns();
  s.seq = rank;
  s.boundary = boundary_scope_;
  s.fn = std::move(fn);
  place(slot, s.time_ns, s.seq);
  if (boundary_scope_) heap_push(boundary_, Ready{s.time_ns, s.seq, slot});
  ++live_;
  return make_id(slot, s.gen);
}

bool EventQueue::cancel(EventId id) {
  if (id == kInvalidEventId) return false;
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].gen != gen) return false;
  // Live ids always carry an odd generation, so a match means pending.
  // The physical wheel/heap entry stays behind as a tombstone; the slot is
  // reclaimed when that entry's window is collected.
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
  // Tombstone reclamation does not change observable contents, so it is safe
  // to perform from a const accessor (same contract as the old heap's
  // compaction).
  if (live_ == 0) return util::SimTime::max();
  auto* self = const_cast<EventQueue*>(this);
  for (;;) {
    if (self->ready_.empty()) {
      self->collect();
      continue;
    }
    const Ready& top = self->ready_.front();
    if ((self->slots_[top.slot].gen & 1u) != 0) {
      return util::SimTime::from_ns(top.time_ns);
    }
    const Ready dead = self->heap_pop(self->ready_);
    self->release_slot(dead.slot);
  }
}

bool EventQueue::peek_slow(std::int64_t& t_ns, std::uint64_t& key) const {
  // Same const_cast contract as next_time(): tombstone reclamation does not
  // change observable contents.
  if (live_ == 0) return false;
  auto* self = const_cast<EventQueue*>(this);
  for (;;) {
    if (self->ready_.empty()) {
      self->collect();
      continue;
    }
    const Ready& top = self->ready_.front();
    if ((self->slots_[top.slot].gen & 1u) != 0) {
      t_ns = top.time_ns;
      key = top.seq;
      return true;
    }
    const Ready dead = self->heap_pop(self->ready_);
    self->release_slot(dead.slot);
  }
}

std::int64_t EventQueue::next_boundary_ns() const {
  // Entries go stale when their event executes, is cancelled, or the slot is
  // recycled; a key is attached to at most one pending event, so a (slot,
  // seq) match against a live slot identifies the original event. Same
  // const_cast contract as next_time(): dropping stale entries changes
  // nothing observable.
  auto* self = const_cast<EventQueue*>(this);
  while (!self->boundary_.empty()) {
    const Ready& top = self->boundary_.front();
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
  for (;;) {
    if (ready_.empty()) collect();
    const Ready top = heap_pop(ready_);
    Slot& s = slots_[top.slot];
    if ((s.gen & 1u) == 0) {
      release_slot(top.slot);  // cancelled after entering the ready heap
      continue;
    }
    Popped out{util::SimTime::from_ns(top.time_ns),
               make_id(top.slot, s.gen), std::move(s.fn), top.seq, s.boundary};
    s.gen += 1;  // odd -> even: executed
    release_slot(top.slot);
    --live_;
    return out;
  }
}

void EventQueue::reserve(std::size_t n) {
  slots_.reserve(n);
  ready_.reserve(n);
}

}  // namespace drs::sim
