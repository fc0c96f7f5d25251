#include "sim/simulator.hpp"

#include <cassert>

namespace drs::sim {

bool EventHandle::pending() const {
  return sim_ != nullptr && sim_->is_pending(id_);
}

bool EventHandle::cancel() {
  if (sim_ == nullptr || id_ == kInvalidEventId) return false;
  const bool cancelled = sim_->cancel(id_);
  release();
  return cancelled;
}

EventHandle Simulator::schedule_at(util::SimTime t, EventCallback fn) {
  assert(t >= now_ && "cannot schedule into the past");
  return EventHandle(this, queue_.push(t, std::move(fn)));
}

EventHandle Simulator::schedule_at_ranked(util::SimTime t, EventCallback fn,
                                          std::uint64_t rank) {
  assert(t >= now_ && "cannot schedule into the past");
  return EventHandle(this, queue_.push_ranked(t, std::move(fn), rank));
}

EventHandle Simulator::schedule_after(util::Duration delay, EventCallback fn) {
  if (delay < util::Duration::zero()) delay = util::Duration::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::is_pending(EventId id) const {
  return id != kInvalidEventId && queue_.is_pending(id);
}

std::uint64_t Simulator::run_until(util::SimTime deadline) {
  std::uint64_t count = 0;
  while (!queue_.empty() && queue_.next_time() <= deadline) {
    auto ev = queue_.pop();
    assert(ev.time >= now_);
    now_ = ev.time;
    enter_entity_of(ev.key);
    ev.fn();
    ++executed_;
    ++count;
  }
  if (deadline > now_ && deadline < util::SimTime::max()) now_ = deadline;
  return count;
}

std::uint64_t Simulator::run() {
  std::uint64_t count = 0;
  while (step()) ++count;
  return count;
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto ev = queue_.pop();
  assert(ev.time >= now_);
  now_ = ev.time;
  enter_entity_of(ev.key);
  // Transitive boundary propagation: a tagged event's children are tagged.
  // Untagged events clear the scope, so a stray raised flag cannot leak.
  queue_.set_boundary_scope(ev.boundary);
  ev.fn();
  queue_.set_boundary_scope(false);
  ++executed_;
  return true;
}

}  // namespace drs::sim
