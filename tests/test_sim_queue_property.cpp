// Differential property test: the hierarchical-timing-wheel EventQueue must
// be observationally identical to a plain sorted-vector reference model under
// randomized push/claim/cancel/pop workloads with random entity switches —
// same pop order (time, then the (entity, per-entity counter) key), same
// keys, same size, same total_scheduled. Claimed ranks are attached later
// with push_ranked, as the probe sweep does. The time distribution
// deliberately exercises every placement path: dense near-term times (level
// 0 buckets), same-timestamp bursts (key ties), mid-range times (coarser
// levels that cascade), far-future times (the overflow heap), and times at
// or below the advancing horizon (direct-to-ready pushes).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "sim/event_queue.hpp"
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
    auto best = events_.begin();
    for (auto it = events_.begin(); it != events_.end(); ++it) {
      if (it->time_ns < best->time_ns ||
          (it->time_ns == best->time_ns && it->key < best->key)) {
        best = it;
      }
    }
    const ModelEvent out = *best;
    events_.erase(best);
    return out;
  }

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
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

/// Draws a push time relative to the latest popped time so the workload
/// keeps straddling the wheel horizon as it advances.
std::int64_t draw_time(util::Rng& rng, std::int64_t watermark) {
  switch (rng.next_below(8)) {
    case 0:  // same-time burst: FIFO tie-order coverage
      return watermark + 1000;
    case 1:  // at or before the horizon: direct-to-ready path
      return watermark;
    case 2:  // far future: overflow heap (beyond the wheel's ~2^46 ns span)
      return watermark + (std::int64_t{1} << 47) +
             static_cast<std::int64_t>(rng.next_below(1u << 20));
    case 3:  // mid-range: coarse levels that must cascade down
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
