// Differential property test: the heap-ordered EventQueue must be
// observationally identical to a plain sorted-vector reference model under
// randomized push/claim/cancel/pop workloads with random entity switches —
// same pop order (time, then the (entity, per-entity counter) key), same
// keys, same size, same total_scheduled. Claimed ranks are attached later
// with push_ranked, as the probe sweep does. Push times mix five classes:
// dense near-term times, same-timestamp bursts (key ties), mid-range times,
// far-future times that stay buried under everything else, and times at the
// latest popped instant. Cancels leave tombstones at every depth, which pop
// must skip when they surface.
//
// The second half runs the same reference one level up, against a
// Simulator with sorted sources: each source keeps its own items sorted on
// (time, key), every item under a rank claimed when it was added, and the
// reference holds every item as one plain event. Queue pushes, cancels and
// rank claims interleave with items that become a new head (a re-arm at an
// earlier head), whole sources dropped (a disarm, as a failed backplane
// drops its ring), sources destroyed and registered again, and firings
// that add items to other sources at the same instant. Heads and events
// must execute in the reference's order, and no source may see its own
// stale head while it fires.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace drs::sim {
namespace {

using util::SimTime;

struct ModelEvent {
  std::int64_t time_ns = 0;
  std::uint64_t key = 0;  // entity, then per-entity counter; breaks ties
  EventId id = kInvalidEventId;
};

/// Sorted-vector reference model: O(n) per op, obviously correct.
class ReferenceQueue {
 public:
  /// The current entity's next key (a push or a rank claim).
  std::uint64_t next_key() {
    ++scheduled_;
    return (std::uint64_t{entity_} << kEntityShift) | ++counters_[entity_];
  }
  void set_entity(Entity entity) { entity_ = entity; }

  void push(std::int64_t time_ns, std::uint64_t key, EventId id) {
    events_.push_back(ModelEvent{time_ns, key, id});
  }

  bool cancel(EventId id) {
    for (auto it = events_.begin(); it != events_.end(); ++it) {
      if (it->id == id) {
        events_.erase(it);
        return true;
      }
    }
    return false;
  }

  ModelEvent pop() {
    const auto best = earliest();
    const ModelEvent out = *best;
    events_.erase(best);
    return out;
  }
  ModelEvent peek() const { return *earliest(); }

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  std::vector<ModelEvent>::const_iterator earliest() const {
    auto best = events_.begin();
    for (auto it = events_.begin(); it != events_.end(); ++it) {
      if (it->time_ns < best->time_ns ||
          (it->time_ns == best->time_ns && it->key < best->key)) {
        best = it;
      }
    }
    return best;
  }
  std::uint64_t scheduled() const { return scheduled_; }
  EventId random_live(util::Rng& rng) const {
    return events_[static_cast<std::size_t>(
                       rng.next_below(events_.size()))]
        .id;
  }

 private:
  std::vector<ModelEvent> events_;
  std::map<Entity, std::uint64_t> counters_;
  Entity entity_ = 0;
  std::uint64_t scheduled_ = 0;
};

/// Entities a workload switches between: the default, a few small ids (the
/// fleet's hub and clusters), and the largest id the key can hold.
Entity draw_entity(util::Rng& rng) {
  const std::uint64_t roll = rng.next_below(6);
  return roll == 5 ? kMaxEntity : static_cast<Entity>(roll);
}

/// Draws a push time relative to the latest popped time, so pushes keep
/// landing both at the heap's top and deep below it as time advances.
std::int64_t draw_time(util::Rng& rng, std::int64_t watermark) {
  switch (rng.next_below(8)) {
    case 0:  // same-time burst: FIFO tie-order coverage
      return watermark + 1000;
    case 1:  // at the latest popped time: becomes the top at once
      return watermark;
    case 2:  // far future (~2^47 ns out): stays buried under later pushes
      return watermark + (std::int64_t{1} << 47) +
             static_cast<std::int64_t>(rng.next_below(1u << 20));
    case 3:  // mid-range: up to ~17 s out
      return watermark + static_cast<std::int64_t>(
                             rng.next_below(std::uint64_t{1} << 34));
    default:  // dense near-term traffic
      return watermark +
             static_cast<std::int64_t>(rng.next_below(1u << 16));
  }
}

void run_differential(std::uint64_t seed, int ops) {
  EventQueue queue;
  ReferenceQueue model;
  util::Rng rng(seed);
  std::vector<EventId> retired;  // popped or cancelled: cancel must fail
  std::vector<std::uint64_t> claimed;  // claimed ranks not yet attached
  std::int64_t watermark = 0;

  for (int op = 0; op < ops; ++op) {
    const std::uint64_t roll = rng.next_below(12);
    if (roll == 10) {
      // Entity scope switch: later pushes and claims draw from its counter.
      const Entity entity = draw_entity(rng);
      queue.set_entity(entity);
      model.set_entity(entity);
      ASSERT_EQ(queue.entity(), entity);
    } else if (roll == 11) {
      const std::uint64_t rank = queue.claim_rank();
      ASSERT_EQ(rank, model.next_key()) << "op " << op;
      claimed.push_back(rank);
    } else if (roll < 5 || model.empty()) {
      const std::int64_t t = draw_time(rng, watermark);
      if (!claimed.empty() && rng.next_below(3) == 0) {
        // Attach a claimed rank, which may belong to another entity and be
        // older than keys pushed since.
        const std::size_t pick =
            static_cast<std::size_t>(rng.next_below(claimed.size()));
        const std::uint64_t rank = claimed[pick];
        claimed.erase(claimed.begin() + static_cast<std::ptrdiff_t>(pick));
        const EventId id = queue.push_ranked(SimTime::from_ns(t), [] {}, rank);
        ASSERT_NE(id, kInvalidEventId);
        model.push(t, rank, id);
      } else {
        const EventId id = queue.push(SimTime::from_ns(t), [] {});
        ASSERT_NE(id, kInvalidEventId);
        model.push(t, model.next_key(), id);
      }
    } else if (roll < 7) {
      const EventId id = model.random_live(rng);
      ASSERT_TRUE(queue.is_pending(id));
      ASSERT_TRUE(queue.cancel(id));
      ASSERT_TRUE(model.cancel(id));
      retired.push_back(id);
    } else {
      const ModelEvent expected = model.pop();
      const EventQueue::Popped got = queue.pop();
      ASSERT_EQ(got.time.ns(), expected.time_ns) << "op " << op;
      ASSERT_EQ(got.id, expected.id) << "op " << op;
      ASSERT_EQ(got.key, expected.key) << "op " << op;
      watermark = std::max(watermark, expected.time_ns);
      retired.push_back(expected.id);
    }
    ASSERT_EQ(queue.size(), model.size());
    ASSERT_EQ(queue.total_scheduled(), model.scheduled());
    if (!retired.empty() && rng.next_below(4) == 0) {
      const EventId stale = retired[static_cast<std::size_t>(
          rng.next_below(retired.size()))];
      EXPECT_FALSE(queue.is_pending(stale));
      EXPECT_FALSE(queue.cancel(stale));
    }
  }

  // Drain: the full remaining pop order must match the model.
  while (!model.empty()) {
    const ModelEvent expected = model.pop();
    const EventQueue::Popped got = queue.pop();
    ASSERT_EQ(got.time.ns(), expected.time_ns);
    ASSERT_EQ(got.id, expected.id);
    ASSERT_EQ(got.key, expected.key);
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
}

// -- sorted sources against the same reference --------------------------------

/// One sorted source under test: its live items, sorted on (time, key).
struct Ring {
  std::vector<ModelEvent> items;
  std::unique_ptr<SortedSource> source;
};

/// Keys are unique across queue events and source items alike, so both the
/// reference and the execution log identify everything by its key.
class SourceDifferential {
 public:
  explicit SourceDifferential(std::uint64_t seed)
      : rng_(seed),
        rings_(1 + static_cast<std::size_t>(rng_.next_below(
                       2 * Simulator::kInlineSources))) {
    for (std::size_t r = 0; r < rings_.size(); ++r) register_ring(r);
  }

  void run(int ops) {
    for (int op = 0; op < ops; ++op) {
      const std::uint64_t roll = rng_.next_below(16);
      if (roll == 0) {
        const Entity entity = draw_entity(rng_);
        sim_.set_entity(entity);
        model_.set_entity(entity);
      } else if (roll == 1) {
        const std::uint64_t rank = sim_.claim_event_rank();
        ASSERT_EQ(rank, model_.next_key()) << "op " << op;
        claimed_.push_back(rank);
      } else if (roll < 5) {
        push_event(draw_time(rng_, sim_.now().ns()));
      } else if (roll == 5 && !handles_.empty()) {
        cancel_event();
      } else if (roll < 10) {
        add_item(pick_ring(), draw_time(rng_, sim_.now().ns()));
      } else if (roll == 10) {
        drop_ring(pick_ring());
      } else if (roll == 11) {
        // Unregister with items in flight, then register afresh.
        const std::size_t r = pick_ring();
        drop_ring(r);
        rings_[r].source.reset();
        register_ring(r);
      } else {
        step();
      }
      if (::testing::Test::HasFatalFailure()) return;
      check_head(op);
      if (::testing::Test::HasFatalFailure()) return;
    }
    while (!model_.empty()) {
      step();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_TRUE(sim_.idle());
    EXPECT_FALSE(sim_.step());
    EXPECT_EQ(sim_.scheduled_events(), model_.scheduled());
  }

 private:
  std::size_t pick_ring() {
    return static_cast<std::size_t>(rng_.next_below(rings_.size()));
  }

  void register_ring(std::size_t r) {
    rings_[r].source =
        std::make_unique<SortedSource>(sim_, [this, r] { fire(r); });
  }

  void push_event(std::int64_t t) {
    const auto at = SimTime::from_ns(t);
    std::uint64_t key = 0;
    if (!claimed_.empty() && rng_.next_below(3) == 0) {
      const auto pick = static_cast<std::size_t>(rng_.next_below(claimed_.size()));
      key = claimed_[pick];
      claimed_.erase(claimed_.begin() + static_cast<std::ptrdiff_t>(pick));
      handles_.push_back(sim_.schedule_at_ranked(
          at, [this, key] { on_event(key); }, key));
    } else {
      key = model_.next_key();
      handles_.push_back(sim_.schedule_at(at, [this, key] { on_event(key); }));
    }
    handle_keys_.push_back(key);
    model_.push(t, key, key);
  }

  void cancel_event() {
    const auto pick = static_cast<std::size_t>(rng_.next_below(handles_.size()));
    if (handles_[pick].pending()) {
      ASSERT_TRUE(model_.cancel(handle_keys_[pick]));
      ASSERT_TRUE(handles_[pick].cancel());
    }
    handles_.erase(handles_.begin() + static_cast<std::ptrdiff_t>(pick));
    handle_keys_.erase(handle_keys_.begin() + static_cast<std::ptrdiff_t>(pick));
  }

  void add_item(std::size_t r, std::int64_t t) {
    Ring& ring = rings_[r];
    const std::uint64_t key = sim_.claim_event_rank();
    ASSERT_EQ(key, model_.next_key());
    const ModelEvent item{t, key, key};
    const auto at = std::upper_bound(
        ring.items.begin(), ring.items.end(), item,
        [](const ModelEvent& a, const ModelEvent& b) {
          return a.time_ns < b.time_ns ||
                 (a.time_ns == b.time_ns && a.key < b.key);
        });
    const bool new_head = at == ring.items.begin();
    ring.items.insert(at, item);
    model_.push(t, key, key);
    if (new_head) ring.source->arm(t, key, false);
  }

  void drop_ring(std::size_t r) {
    Ring& ring = rings_[r];
    for (const ModelEvent& item : ring.items) ASSERT_TRUE(model_.cancel(item.id));
    ring.items.clear();
    ring.source->disarm();
  }

  /// What any execution may do: add an item to some source at the current
  /// instant, under a rank claimed in the executing entity.
  void maybe_add_now() {
    if (rng_.next_below(3) == 0) add_item(pick_ring(), sim_.now().ns());
  }

  void on_event(std::uint64_t key) {
    executed_.push_back(key);
    maybe_add_now();
  }

  void fire(std::size_t r) {
    Ring& ring = rings_[r];
    ASSERT_FALSE(ring.items.empty());
    const ModelEvent item = ring.items.front();
    ring.items.erase(ring.items.begin());
    EXPECT_EQ(sim_.now().ns(), item.time_ns);
    // Peeking before the re-arm drops the consumed head; re-arming first
    // replaces it in place. Either way only what comes after it is visible.
    const bool peek_first = rng_.next_below(2) == 0;
    if (peek_first) expect_after(item);
    if (!ring.items.empty()) {
      ring.source->arm(ring.items.front().time_ns, ring.items.front().key, false);
    }
    expect_after(item);
    on_event(item.key);
  }

  void expect_after(const ModelEvent& fired) {
    std::int64_t t_ns = 0;
    std::uint64_t key = 0;
    if (sim_.peek_next(t_ns, key)) {
      EXPECT_TRUE(t_ns > fired.time_ns || (t_ns == fired.time_ns && key > fired.key))
          << "a source saw its own stale head while firing";
    }
  }

  void step() {
    if (model_.empty()) {
      ASSERT_FALSE(sim_.step());
      return;
    }
    const ModelEvent expected = model_.pop();
    // Executing switches to the event's entity before its callback claims.
    model_.set_entity(entity_of(expected.key));
    const std::size_t before = executed_.size();
    ASSERT_TRUE(sim_.step());
    ASSERT_EQ(executed_.size(), before + 1);
    ASSERT_EQ(executed_[before], expected.key);
    ASSERT_EQ(sim_.now().ns(), expected.time_ns);
    ASSERT_EQ(sim_.entity(), entity_of(expected.key));
  }

  void check_head(int op) {
    std::int64_t t_ns = 0;
    std::uint64_t key = 0;
    const bool pending = sim_.peek_next(t_ns, key);
    ASSERT_EQ(pending, !model_.empty()) << "op " << op;
    ASSERT_EQ(sim_.idle(), model_.empty()) << "op " << op;
    if (!pending) {
      ASSERT_EQ(sim_.next_event_time(), SimTime::max());
      return;
    }
    const ModelEvent head = model_.peek();
    ASSERT_EQ(t_ns, head.time_ns) << "op " << op;
    ASSERT_EQ(key, head.key) << "op " << op;
    ASSERT_EQ(sim_.next_event_time().ns(), head.time_ns) << "op " << op;
  }

  Simulator sim_;
  ReferenceQueue model_;
  util::Rng rng_;
  std::vector<Ring> rings_;  // after sim_: sources unregister first
  std::vector<std::uint64_t> claimed_;
  std::vector<EventHandle> handles_;
  std::vector<std::uint64_t> handle_keys_;  // parallel to handles_
  std::vector<std::uint64_t> executed_;     // keys, in execution order
};

TEST(SimulatorSourceProperty, MatchesReferenceModelSeed1) {
  SourceDifferential(0x50C1u).run(10000);
}

TEST(SimulatorSourceProperty, MatchesReferenceModelSeed2) {
  SourceDifferential(0x50C2u).run(10000);
}

TEST(SimulatorSourceProperty, ManySeedsShortRuns) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SourceDifferential(seed * 0x9E3779B9u).run(500);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(EventQueueProperty, MatchesReferenceModelSeed1) {
  run_differential(0xD1FF1u, 10000);
}

TEST(EventQueueProperty, MatchesReferenceModelSeed2) {
  run_differential(0xD1FF2u, 10000);
}

TEST(EventQueueProperty, MatchesReferenceModelSeed3) {
  run_differential(0xD1FF3u, 10000);
}

TEST(EventQueueProperty, ManySeedsShortRuns) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    run_differential(seed * 0x9E3779B9u, 500);
  }
}

}  // namespace
}  // namespace drs::sim
