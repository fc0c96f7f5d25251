#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>

#include "obs/macros.hpp"
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
  EventHandle handle(this, queue_.push(t, std::move(fn)));
  note_population(t.ns());
  return handle;
}

EventHandle Simulator::schedule_at_ranked(util::SimTime t, EventCallback fn,
                                          std::uint64_t rank) {
  assert(t >= now_ && "cannot schedule into the past");
  EventHandle handle(this, queue_.push_ranked(t, std::move(fn), rank));
  note_population(t.ns());
  return handle;
}

void Simulator::note_population(std::int64_t at_ns) {
  if (pending_events() < high_water_next_) return;
  // Stamped with the scheduled instant, not now(): deterministic either way,
  // and what the trace has always reported.
  DRS_TRACE_EVENT(tracer_, .at_ns = at_ns,
                  .kind = obs::TraceEventKind::kQueueHighWater,
                  .a = static_cast<std::int64_t>(pending_events()),
                  .b = static_cast<std::int64_t>(high_water_next_));
  high_water_next_ *= 2;
}

EventHandle Simulator::schedule_after(util::Duration delay, EventCallback fn) {
  if (delay < util::Duration::zero()) delay = util::Duration::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulator::is_pending(EventId id) const {
  return id != kInvalidEventId && queue_.is_pending(id);
}

util::SimTime Simulator::next_event_time() const {
  settle();
  const util::SimTime queued = queue_.next_time();
  if (armed_ == 0 || heads_[0].t_ns >= queued.ns()) return queued;
  return util::SimTime::from_ns(heads_[0].t_ns);
}

bool Simulator::peek_next(std::int64_t& t_ns, std::uint64_t& key) const {
  settle();
  const bool queued = queue_.peek(t_ns, key);
  if (armed_ == 0) return queued;
  if (!queued || before(heads_[0], Head{t_ns, key})) {
    t_ns = heads_[0].t_ns;
    key = heads_[0].key;
  }
  return true;
}

std::int64_t Simulator::next_boundary_ns() const {
  std::int64_t next = queue_.next_boundary_ns();
  if (tagged_sources_ == 0) return next;
  // A tagged source holds items, so it is armed (or firing, which the
  // engine never observes): scan the few armed heads.
  settle();
  for (std::uint32_t i = 0; i < armed_; ++i) {
    if (heads_[i].source->tagged_) next = std::min(next, heads_[i].t_ns);
  }
  return next;
}

bool Simulator::execute_next(std::int64_t deadline_ns) {
  settle();  // only when called from inside a firing
  std::int64_t t_ns = 0;
  std::uint64_t key = 0;
  const bool queued = queue_.peek(t_ns, key);
  if (armed_ != 0 && (!queued || before(heads_[0], Head{t_ns, key}))) {
    const Head head = heads_[0];
    if (head.t_ns > deadline_ns) return false;
    // Consumed before it fires: the owner's re-arm replaces it in place,
    // and nothing observes it meanwhile (see settle()).
    fired_top_ = true;
    assert(head.t_ns >= now_.ns());
    now_ = util::SimTime::from_ns(head.t_ns);
    enter_entity_of(head.key);
    queue_.set_boundary_scope(head.source->boundary_);
    head.source->fire_();
    settle();
  } else {
    if (!queued || t_ns > deadline_ns) return false;
    auto ev = queue_.pop();
    assert(ev.time >= now_);
    now_ = ev.time;
    enter_entity_of(ev.key);
    // Transitive boundary propagation: a tagged event's children are
    // tagged. Untagged events clear the scope, so a stray raised flag
    // cannot leak.
    queue_.set_boundary_scope(ev.boundary);
    ev.fn();
  }
  queue_.set_boundary_scope(false);
  ++executed_;
  return true;
}

std::uint64_t Simulator::run_until(util::SimTime deadline) {
  std::uint64_t count = 0;
  while (execute_next(deadline.ns())) ++count;
  if (deadline > now_ && deadline < util::SimTime::max()) now_ = deadline;
  return count;
}

std::uint64_t Simulator::run() {
  std::uint64_t count = 0;
  while (step()) ++count;
  return count;
}

// -- the head heap -------------------------------------------------------------

void Simulator::add_source() {
  ++sources_;
  if (sources_ <= kInlineSources || sources_ <= spilled_.size()) return;
  // Registration-time growth (setup, never the delivery path): one entry
  // per registered source, so arming never allocates.
  const bool was_inline = spilled_.empty();
  spilled_.resize(std::max<std::size_t>(sources_, 2 * spilled_.size()));
  if (was_inline) std::copy(inline_heads_, inline_heads_ + armed_, spilled_.begin());
  heads_ = spilled_.data();
}

void Simulator::remove_source(SortedSource& source) {
  disarm_source(source);
  source.set_tagged(false);
  --sources_;
}

void Simulator::place_head(std::uint32_t at, const Head& head) {
  heads_[at] = head;
  head.source->slot_ = at;
}

void Simulator::sift_up(std::uint32_t at) {
  const Head head = heads_[at];
  while (at > 0) {
    const std::uint32_t parent = (at - 1) / kArity;
    if (!before(head, heads_[parent])) break;
    place_head(at, heads_[parent]);
    at = parent;
  }
  place_head(at, head);
}

void Simulator::sift_down(std::uint32_t at) {
  const Head head = heads_[at];
  for (;;) {
    const std::uint32_t first = kArity * at + 1;
    if (first >= armed_) break;
    const std::uint32_t end = std::min(first + kArity, armed_);
    std::uint32_t child = first;
    for (std::uint32_t c = first + 1; c < end; ++c) {
      child = before(heads_[c], heads_[child]) ? c : child;
    }
    if (!before(heads_[child], head)) break;
    place_head(at, heads_[child]);
    at = child;
  }
  place_head(at, head);
}

void Simulator::arm_source(SortedSource& source, std::int64_t t_ns,
                           std::uint64_t key) {
  assert(t_ns >= now_.ns() && "cannot arm a source head in the past");
  if (fired_top_) {
    if (source.slot_ == 0) {
      // The firing source's next head takes the consumed one's place: the
      // root may hold any value, so one sift down restores the heap.
      fired_top_ = false;
      heads_[0].t_ns = t_ns;
      heads_[0].key = key;
      sift_down(0);
      return;
    }
    drop_fired_top();
  }
  if (source.slot_ == SortedSource::kUnarmed) {
    assert(armed_ < std::max<std::size_t>(kInlineSources, spilled_.size()));
    const std::uint32_t at = armed_++;
    place_head(at, Head{t_ns, key, &source});
    sift_up(at);
    note_population(t_ns);
    return;
  }
  const std::uint32_t at = source.slot_;
  const bool earlier = before(Head{t_ns, key}, heads_[at]);
  heads_[at].t_ns = t_ns;
  heads_[at].key = key;
  if (earlier) {
    sift_up(at);
  } else {
    sift_down(at);
  }
}

void Simulator::disarm_source(SortedSource& source) {
  settle();
  if (source.slot_ != SortedSource::kUnarmed) remove_head(source.slot_);
}

void Simulator::drop_fired_top() {
  fired_top_ = false;
  remove_head(0);
}

void Simulator::remove_head(std::uint32_t at) {
  heads_[at].source->slot_ = SortedSource::kUnarmed;
  const std::uint32_t last = --armed_;
  if (at == last) return;
  // The last head fills the hole, then moves whichever way it must.
  place_head(at, heads_[last]);
  if (at > 0 && before(heads_[at], heads_[(at - 1) / kArity])) {
    sift_up(at);
  } else {
    sift_down(at);
  }
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
