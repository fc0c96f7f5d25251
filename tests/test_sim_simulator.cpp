#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/backplane.hpp"
#include "net/host.hpp"
#include "sim/timer.hpp"

namespace drs::sim {
namespace {

using namespace drs::util::literals;
using util::SimTime;

TEST(Simulator, ClockStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, RunUntilAdvancesClockToDeadline) {
  Simulator sim;
  sim.run_until(SimTime::zero() + 5_s);
  EXPECT_EQ(sim.now(), SimTime::zero() + 5_s);
}

TEST(Simulator, EventsSeeTheirOwnTimestamp) {
  Simulator sim;
  SimTime seen;
  sim.schedule_after(3_ms, [&] { seen = sim.now(); });
  sim.run_for(10_ms);
  EXPECT_EQ(seen, SimTime::zero() + 3_ms);
}

TEST(Simulator, EventsChainAndNest) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(1_ms, [&] {
    order.push_back(1);
    sim.schedule_after(1_ms, [&] { order.push_back(3); });
    sim.schedule_after(0_ms, [&] { order.push_back(2); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.executed_events(), 3u);
}

TEST(Simulator, RunUntilExcludesLaterEvents) {
  Simulator sim;
  int runs = 0;
  sim.schedule_after(1_ms, [&] { ++runs; });
  sim.schedule_after(10_ms, [&] { ++runs; });
  EXPECT_EQ(sim.run_for(5_ms), 1u);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulator, EventAtDeadlineRuns) {
  Simulator sim;
  bool ran = false;
  sim.schedule_after(5_ms, [&] { ran = true; });
  sim.run_for(5_ms);
  EXPECT_TRUE(ran);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  bool ran = false;
  sim.schedule_after(-5_ms, [&] { ran = true; });
  sim.run_for(0_ms);
  EXPECT_TRUE(ran);
}

TEST(Simulator, HandleCancelStopsEvent) {
  Simulator sim;
  bool ran = false;
  EventHandle handle = sim.schedule_after(1_ms, [&] { ran = true; });
  EXPECT_TRUE(handle.pending());
  EXPECT_TRUE(handle.cancel());
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());  // second cancel is inert
}

TEST(Simulator, DefaultHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.pending());
  EXPECT_FALSE(handle.cancel());
}

// Regression: EventHandle used to be copyable, so two copies could both hold
// the same EventId and race to cancel it. The handle is now move-only and
// cancellation rights travel with the move.
TEST(Simulator, HandleIsMoveOnly) {
  static_assert(!std::is_copy_constructible_v<EventHandle>);
  static_assert(!std::is_copy_assignable_v<EventHandle>);
  static_assert(std::is_move_constructible_v<EventHandle>);
  static_assert(std::is_move_assignable_v<EventHandle>);
}

TEST(Simulator, MoveTransfersCancellationRight) {
  Simulator sim;
  bool ran = false;
  EventHandle original = sim.schedule_after(1_ms, [&] { ran = true; });
  EventHandle moved = std::move(original);
  // The moved-from handle is inert: it can no longer observe or cancel.
  EXPECT_FALSE(original.pending());  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(original.cancel());
  // The event is still scheduled and only the new owner controls it.
  EXPECT_TRUE(moved.pending());
  EXPECT_TRUE(moved.cancel());
  EXPECT_FALSE(moved.cancel());  // idempotent across repeated calls
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, MoveAssignmentReleasesSource) {
  Simulator sim;
  EventHandle a = sim.schedule_after(1_ms, [] {});
  EventHandle b;
  b = std::move(a);
  EXPECT_FALSE(a.pending());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.pending());
  EXPECT_TRUE(b.cancel());
  EXPECT_FALSE(b.pending());
  EXPECT_FALSE(b.cancel());
}

TEST(Simulator, StepExecutesExactlyOne) {
  Simulator sim;
  int runs = 0;
  sim.schedule_after(1_ms, [&] { ++runs; });
  sim.schedule_after(2_ms, [&] { ++runs; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

// -- same-time ordering keys -------------------------------------------------

TEST(Simulator, UnscopedSameTimeEventsPopInPushOrder) {
  // The contract every single-entity simulation relies on: without an
  // EntityScope everything runs in entity 0 and same-time events are FIFO.
  Simulator sim;
  std::vector<int> order;
  const SimTime t = SimTime::zero() + 1_ms;
  for (int i = 0; i < 6; ++i) {
    sim.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  sim.schedule_at(SimTime::zero(), [&] {
    sim.schedule_at(t, [&order] { order.push_back(6); });
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(sim.entity(), 0u);
}

TEST(Simulator, SameTimeEventsOrderByEntityThenPushOrder) {
  Simulator sim;
  std::vector<int> order;
  const SimTime t = SimTime::zero() + 1_ms;
  {
    const EntityScope scope(sim, 3);
    sim.schedule_at(t, [&] { order.push_back(30); });
  }
  {
    const EntityScope scope(sim, 2);
    sim.schedule_at(t, [&] { order.push_back(20); });
  }
  sim.schedule_at(t, [&] { order.push_back(0); });
  {
    const EntityScope scope(sim, 3);
    sim.schedule_at(t, [&] { order.push_back(31); });
  }
  sim.run_until(t);
  EXPECT_EQ(order, (std::vector<int>{0, 20, 30, 31}));
}

TEST(Simulator, EntityScopeNestsAndRestores) {
  Simulator sim;
  EXPECT_EQ(sim.entity(), 0u);
  {
    const EntityScope outer(sim, 4);
    EXPECT_EQ(sim.entity(), 4u);
    {
      const EntityScope inner(sim, 7);
      EXPECT_EQ(sim.entity(), 7u);
      {
        const EntityScope same(sim, 7);
        EXPECT_EQ(sim.entity(), 7u);
      }
      EXPECT_EQ(sim.entity(), 7u);
    }
    EXPECT_EQ(sim.entity(), 4u);
  }
  EXPECT_EQ(sim.entity(), 0u);
}

TEST(Simulator, ChildrenInheritTheirParentsEntity) {
  // step() (via run) and the run_until hot loop apply the popped event's
  // entity the same way.
  for (const bool stepped : {true, false}) {
    SCOPED_TRACE(stepped ? "step" : "run_until");
    Simulator sim;
    std::vector<Entity> seen;
    {
      const EntityScope scope(sim, 5);
      sim.schedule_after(1_ms, [&] {
        seen.push_back(sim.entity());
        sim.schedule_after(1_ms, [&] { seen.push_back(sim.entity()); });
      });
    }
    sim.schedule_after(3_ms, [&] { seen.push_back(sim.entity()); });
    if (stepped) {
      sim.run();
    } else {
      sim.run_until(SimTime::zero() + 5_ms);
    }
    EXPECT_EQ(seen, (std::vector<Entity>{5, 5, 0}));
  }
}

TEST(Simulator, FrameIntoAnotherEntitysHostSchedulesUnderThatEntity) {
  // A shared medium (entity 0) delivers a broadcast to a host built under
  // entity 6: the receive path and everything it schedules run under 6.
  Simulator sim;
  net::Backplane medium(sim, net::kNetworkA, {});
  const auto make_host = [&](net::NodeId id) {
    auto host = std::make_unique<net::Host>(sim, id);
    const auto index = static_cast<net::ClusterId>(id);
    auto nic = std::make_unique<net::Nic>(id, net::kNetworkA,
                                          net::fleet_relay_mac(index),
                                          net::fleet_relay_ip(index), *host);
    medium.attach(*nic);
    net::HostAssembler::install_nic(*host, net::kNetworkA, std::move(nic));
    return host;
  };
  std::unique_ptr<net::Host> sender = make_host(0);
  std::unique_ptr<net::Host> receiver;
  {
    const EntityScope scope(sim, 6);
    receiver = make_host(1);
  }
  std::vector<Entity> seen;
  receiver->register_handler(
      net::Protocol::kUdp, [&](const net::Packet&, net::NetworkId) {
        seen.push_back(sim.entity());
        sim.schedule_after(1_ms, [&] { seen.push_back(sim.entity()); });
      });
  sim.schedule_after(1_ms, [&] {
    net::Packet packet;
    packet.dst = net::Ipv4Addr(0xFFFFFFFFu);
    packet.protocol = net::Protocol::kUdp;
    sender->broadcast_on(net::kNetworkA, packet);
    seen.push_back(sim.entity());
  });
  sim.run();
  EXPECT_EQ(seen, (std::vector<Entity>{0, 6, 6}));
  EXPECT_EQ(sim.entity(), 6u);  // the last event executed ran under 6
}

// -- sorted sources ------------------------------------------------------------

/// A sorted source over instants added in time order, each under a rank
/// claimed when it is added; every firing logs its instant.
class ListSource {
 public:
  explicit ListSource(Simulator& sim)
      : sim_(sim), source_(sim, [this] { fire(); }) {}

  std::uint64_t add(SimTime t) {
    const std::uint64_t key = sim_.claim_event_rank();
    items_.push_back({t.ns(), key});
    if (items_.size() - head_ == 1) arm();
    return key;
  }
  const std::vector<std::int64_t>& fired() const { return fired_; }

 private:
  void arm() { source_.arm(items_[head_].first, items_[head_].second, false); }
  void fire() {
    fired_.push_back(sim_.now().ns());
    if (++head_ < items_.size()) arm();
  }

  Simulator& sim_;
  std::vector<std::pair<std::int64_t, std::uint64_t>> items_;
  std::size_t head_ = 0;
  std::vector<std::int64_t> fired_;
  SortedSource source_;
};

TEST(SortedSource, RunStepAndPeekReachAHeadWhenTheWheelIsEmpty) {
  const SimTime first = SimTime::zero() + 2_ms;
  const SimTime second = SimTime::zero() + 5_ms;
  {
    Simulator sim;
    ListSource source(sim);
    EXPECT_TRUE(sim.idle());
    const std::uint64_t key = source.add(first);
    source.add(second);
    EXPECT_FALSE(sim.idle());
    EXPECT_EQ(sim.pending_events(), 1u);  // one armed head, not two items
    EXPECT_EQ(sim.next_event_time(), first);
    std::int64_t t_ns = 0;
    std::uint64_t peeked = 0;
    ASSERT_TRUE(sim.peek_next(t_ns, peeked));
    EXPECT_EQ(t_ns, first.ns());
    EXPECT_EQ(peeked, key);

    // step_until stops short of a head past its deadline, then reaches it.
    EXPECT_EQ(sim.step_until(first - 1_us, [&] { return !source.fired().empty(); }),
              SimTime::max());
    EXPECT_TRUE(source.fired().empty());
    EXPECT_EQ(sim.step_until(second, [&] { return !source.fired().empty(); }),
              first);
    EXPECT_EQ(sim.now(), first);

    // run_until executes the re-armed head and counts it.
    EXPECT_EQ(sim.run_until(SimTime::zero() + 10_ms), 1u);
    EXPECT_EQ(source.fired(), (std::vector<std::int64_t>{first.ns(), second.ns()}));
    EXPECT_TRUE(sim.idle());
    EXPECT_FALSE(sim.peek_next(t_ns, peeked));
    EXPECT_EQ(sim.executed_events(), 2u);
  }
  {
    // step() alone drains a source too.
    Simulator sim;
    ListSource source(sim);
    source.add(first);
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
    EXPECT_EQ(source.fired().size(), 1u);
  }
}

TEST(SortedSource, DestroyedBackplaneWithFramesInFlightIsNeverTouchedAgain) {
  // Under ASan a firing of the destroyed ring is a heap-use-after-free.
  Simulator sim;
  struct Sink final : net::FrameSink {
    int frames = 0;
    void on_frame(net::NetworkId, const net::Frame&) override { ++frames; }
  };
  Sink sink;
  const auto send_burst = [&](net::Backplane& medium,
                              std::vector<std::unique_ptr<net::Nic>>& nics) {
    for (net::NodeId i = 0; i < 3; ++i) {
      nics.push_back(std::make_unique<net::Nic>(i, net::kNetworkA,
                                                net::cluster_mac(0, i),
                                                net::cluster_ip(0, i), sink));
      medium.attach(*nics.back());
    }
    for (int k = 0; k < 4; ++k) {
      net::Frame frame;
      frame.src = nics[0]->mac();
      frame.dst = net::MacAddr::broadcast();
      nics[0]->send(frame);
    }
  };
  {
    auto medium = std::make_unique<net::Backplane>(sim, net::kNetworkA,
                                                   net::Backplane::Config{});
    std::vector<std::unique_ptr<net::Nic>> nics;
    send_burst(*medium, nics);
    EXPECT_FALSE(sim.idle());
    medium.reset();
  }
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(sink.frames, 0);

  // The freed registration is reused: a new medium on the same simulator
  // delivers its own burst (4 broadcasts to 2 receivers).
  net::Backplane medium(sim, net::kNetworkA, net::Backplane::Config{});
  std::vector<std::unique_ptr<net::Nic>> nics;
  send_burst(medium, nics);
  EXPECT_EQ(sim.run(), 4u);
  EXPECT_EQ(sink.frames, 8);
}

TEST(PeriodicTimer, TicksAtPeriod) {
  Simulator sim;
  std::vector<SimTime> ticks;
  PeriodicTimer timer(sim, 10_ms, [&] { ticks.push_back(sim.now()); });
  timer.start();
  sim.run_for(35_ms);
  ASSERT_EQ(ticks.size(), 4u);  // t = 0, 10, 20, 30
  EXPECT_EQ(ticks[0], SimTime::zero() + 0_ms);
  EXPECT_EQ(ticks[1], SimTime::zero() + 10_ms);
  EXPECT_EQ(ticks[2], SimTime::zero() + 20_ms);
  EXPECT_EQ(ticks[3], SimTime::zero() + 30_ms);
  EXPECT_EQ(timer.ticks(), 4u);
}

TEST(PeriodicTimer, InitialDelayShiftsPhase) {
  Simulator sim;
  std::vector<SimTime> ticks;
  PeriodicTimer timer(sim, 10_ms, [&] { ticks.push_back(sim.now()); });
  timer.start(4_ms);
  sim.run_for(25_ms);
  ASSERT_EQ(ticks.size(), 3u);
  EXPECT_EQ(ticks[0], SimTime::zero() + 4_ms);
  EXPECT_EQ(ticks[1], SimTime::zero() + 14_ms);
}

TEST(PeriodicTimer, StopInsideCallbackHalts) {
  Simulator sim;
  int count = 0;
  PeriodicTimer timer(sim, 1_ms, [&] {
    if (++count == 3) sim.schedule_after(0_ms, [&] { /* placeholder */ });
  });
  timer.start();
  // stop from inside the 3rd tick:
  PeriodicTimer stopper(sim, 1_ms, [&] {
    if (count >= 3) timer.stop();
  });
  stopper.start();
  sim.run_for(10_ms);
  EXPECT_LE(count, 4);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimer, StopAndRestart) {
  Simulator sim;
  int count = 0;
  PeriodicTimer timer(sim, 5_ms, [&] { ++count; });
  timer.start();
  sim.run_for(11_ms);
  EXPECT_EQ(count, 3);  // t = 0, 5, 10
  timer.stop();
  sim.run_for(20_ms);
  EXPECT_EQ(count, 3);
  timer.start();
  sim.run_for(6_ms);
  EXPECT_EQ(count, 5);  // t = 31, 36
}

TEST(PeriodicTimer, DestructorCancels) {
  Simulator sim;
  int count = 0;
  {
    PeriodicTimer timer(sim, 1_ms, [&] { ++count; });
    timer.start();
    sim.run_for(3_ms);
  }
  const int at_destroy = count;
  sim.run_for(10_ms);
  EXPECT_EQ(count, at_destroy);
}

TEST(PeriodicTimer, SetPeriodTakesEffectNextTick) {
  Simulator sim;
  std::vector<SimTime> ticks;
  PeriodicTimer timer(sim, 10_ms, [&] { ticks.push_back(sim.now()); });
  timer.start();
  sim.run_for(1_ms);
  timer.set_period(3_ms);
  sim.run_for(15_ms);
  // First tick at 0, next was already armed for 10, then every 3.
  ASSERT_GE(ticks.size(), 3u);
  EXPECT_EQ(ticks[1], SimTime::zero() + 10_ms);
  EXPECT_EQ(ticks[2], SimTime::zero() + 13_ms);
}

}  // namespace
}  // namespace drs::sim
