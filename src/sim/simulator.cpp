#include "sim/simulator.hpp"

#include <cassert>

#include "obs/metrics.hpp"

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

void collect_metrics(std::span<const Simulator* const> sims,
                     obs::MetricRegistry& registry) {
  util::Arena::Stats arena;
  std::int64_t event_slots = 0, pending_events = 0;
  std::int64_t scheduled = 0, executed = 0;
  for (const Simulator* sim : sims) {
    event_slots += static_cast<std::int64_t>(sim->event_slots());
    pending_events += static_cast<std::int64_t>(sim->pending_events());
    scheduled += static_cast<std::int64_t>(sim->scheduled_events());
    executed += static_cast<std::int64_t>(sim->executed_events());
    const util::Arena::Stats& stats = sim->arena().stats();
    arena.chunks += stats.chunks;
    arena.bytes_reserved += stats.bytes_reserved;
    arena.allocations += stats.allocations;
    arena.freelist_hits += stats.freelist_hits;
    arena.oversize += stats.oversize;
    arena.resets += stats.resets;
  }
  registry.gauge("sim.event_slots").set(event_slots);
  registry.gauge("sim.pending_events").set(pending_events);
  registry.counter("sim.scheduled_events").add(scheduled);
  registry.counter("sim.executed_events").add(executed);
  registry.gauge("arena.chunks").set(static_cast<std::int64_t>(arena.chunks));
  registry.gauge("arena.bytes_reserved")
      .set(static_cast<std::int64_t>(arena.bytes_reserved));
  registry.counter("arena.allocations")
      .add(static_cast<std::int64_t>(arena.allocations));
  registry.counter("arena.freelist_hits")
      .add(static_cast<std::int64_t>(arena.freelist_hits));
  registry.counter("arena.oversize")
      .add(static_cast<std::int64_t>(arena.oversize));
  registry.counter("arena.resets").add(static_cast<std::int64_t>(arena.resets));
}

}  // namespace drs::sim
