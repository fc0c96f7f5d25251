// The backplane's delivery ring beyond the FIFO hub: switch frames and
// jittered hub frames that arrive out of send order, the re-arm when a new
// frame becomes the head, the at-once loss count when the medium fails, and
// the boundary tag each entry keeps wherever it sits in the ring.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "net/backplane.hpp"

namespace drs::net {
namespace {

using namespace drs::util::literals;

struct FixedPayload final : Payload {
  std::uint32_t size;
  explicit FixedPayload(std::uint32_t s) : size(s) {}
  std::uint32_t wire_size() const override { return size; }
};

/// One delivery as the whole backplane saw it, in delivery order.
struct Delivery {
  NodeId node;
  std::int64_t at_ns;
  std::uint64_t packet_id;
  bool boundary = false;  // delivered under the boundary scope
  bool operator==(const Delivery&) const = default;
};

/// Appends every frame it receives to a log shared by all sinks.
struct LoggingSink final : FrameSink {
  NodeId node = 0;
  sim::Simulator* sim = nullptr;
  std::vector<Delivery>* log = nullptr;
  void on_frame(NetworkId, const Frame& frame) override {
    log->push_back(
        {node, sim->now().ns(), frame.packet.id, sim->in_boundary_scope()});
  }
};

Frame make_frame(MacAddr src, MacAddr dst, std::uint32_t payload_bytes,
                 std::uint64_t id) {
  Frame f;
  f.src = src;
  f.dst = dst;
  f.packet.payload = std::make_shared<FixedPayload>(payload_bytes);
  f.packet.id = id;
  return f;
}

// 1000 B of payload: 1038 B on the wire, 83.04 us at 100 Mb/s. No payload:
// a 64 B minimum frame, 5.12 us. 1480 B: a full-size 1518 B frame, 121.44 us.
constexpr std::uint32_t kMidPayload = 1000;
constexpr std::int64_t kMidNs = 83'040;
constexpr std::int64_t kMinNs = 5'120;
constexpr std::uint32_t kFullPayload = 1480;
constexpr std::int64_t kFullNs = 121'440;

class DeliveryRingTest : public ::testing::Test {
 protected:
  void build(Backplane::Config config) {
    backplane = std::make_unique<Backplane>(sim, 0, config);
    for (int i = 0; i < 4; ++i) {
      const auto node = static_cast<NodeId>(i);
      sinks[i].node = node;
      sinks[i].sim = &sim;
      sinks[i].log = &log;
      nics.push_back(std::make_unique<Nic>(node, 0, cluster_mac(0, node),
                                           cluster_ip(0, node), sinks[i]));
      backplane->attach(*nics.back());
    }
  }
  static Backplane::Config switched() {
    Backplane::Config config;
    config.kind = MediumKind::kSwitch;
    config.propagation_delay = util::Duration::zero();
    return config;
  }
  void send(std::size_t from, std::size_t to, std::uint32_t payload,
            std::uint64_t id) {
    nics[from]->send(make_frame(nics[from]->mac(), nics[to]->mac(), payload, id));
  }
  /// send() under the boundary scope, as a gateway's traffic is.
  void send_tagged(std::size_t from, std::size_t to, std::uint32_t payload,
                   std::uint64_t id) {
    const sim::BoundaryScope scope(sim);
    send(from, to, payload, id);
  }

  sim::Simulator sim;
  std::unique_ptr<Backplane> backplane;
  std::vector<Delivery> log;
  LoggingSink sinks[4];
  std::vector<std::unique_ptr<Nic>> nics;
};

TEST_F(DeliveryRingTest, SwitchFrameToAnIdlePortOvertakesABusyPortsQueue) {
  build(switched());
  // Frames 1 and 2 queue on node 1's egress port; frame 3 goes out of node
  // 2's idle port and arrives with frame 1, after it in send order, so it
  // lands mid-ring ahead of frame 2.
  send(0, 1, kMidPayload, 1);
  send(2, 1, kMidPayload, 2);
  send(3, 2, kMidPayload, 3);
  sim.run();
  const std::vector<Delivery> expected = {
      {1, 2 * kMidNs, 1}, {2, 2 * kMidNs, 3}, {1, 3 * kMidNs, 2}};
  EXPECT_EQ(log, expected);
}

TEST_F(DeliveryRingTest, SwitchFrameThatBecomesTheHeadRearmsTheRing) {
  build(switched());
  // The full-size frame arms the ring at its arrival; the minimum frame,
  // sent after it to another port, arrives long before it and must be
  // delivered on time, not when the full-size frame's event fires.
  send(0, 1, kFullPayload, 1);
  send(2, 3, 0, 2);
  sim.run();
  const std::vector<Delivery> expected = {{3, 2 * kMinNs, 2},
                                          {1, 2 * kFullNs, 1}};
  EXPECT_EQ(log, expected);
}

TEST_F(DeliveryRingTest, JitteredHubDeliversInArrivalThenSendOrder) {
  Backplane::Config config;
  config.jitter = 200_us;
  config.seed = 11;
  build(config);
  // Replays the hub's own rules (same seed and id, so the same draws) to
  // predict each frame's arrival.
  Backplane::Medium oracle(config, 0);
  std::vector<Delivery> expected;
  for (std::uint64_t id = 0; id < 12; ++id) {
    send(0, 1, 0, id);
    const std::optional<util::SimTime> arrival =
        oracle.offer(util::SimTime::zero(), kMinEthFrameBytes);
    ASSERT_TRUE(arrival.has_value());
    expected.push_back({1, (*arrival + oracle.draw_jitter()).ns(), id});
  }
  const std::vector<Delivery> send_order = expected;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const Delivery& a, const Delivery& b) {
                     return a.at_ns < b.at_ns;
                   });
  ASSERT_NE(expected, send_order) << "the jitter draws left send order intact";
  sim.run();
  EXPECT_EQ(log, expected);
}

TEST_F(DeliveryRingTest, FailedSwitchCountsEveryFrameInFlightAtOnce) {
  build(switched());
  send(0, 1, kMidPayload, 1);
  send(2, 3, kMidPayload, 2);
  nics[3]->send(make_frame(nics[3]->mac(), MacAddr::broadcast(), 0, 3));
  // Five deliveries in flight (two unicasts, three broadcast copies), the
  // earliest due at 10.24 us.
  std::uint64_t lost_at_failure = 0;
  sim.schedule_at(util::SimTime::zero() + 1_us, [&] {
    backplane->set_failed(true);
    lost_at_failure = backplane->counters().lost_in_flight;
  });
  sim.run();
  EXPECT_EQ(lost_at_failure, 5u);
  EXPECT_EQ(backplane->counters().lost_in_flight, 5u);
  EXPECT_TRUE(log.empty());
}

TEST_F(DeliveryRingTest, FailedJitteredHubCountsEveryFrameInFlightAtOnce) {
  Backplane::Config config;
  config.jitter = 100_us;
  build(config);
  for (std::uint64_t id = 0; id < 4; ++id) send(0, 1, 0, id);
  nics[2]->send(make_frame(nics[2]->mac(), MacAddr::broadcast(), 0, 9));
  // Five frames in flight, the earliest due no sooner than 10.12 us.
  std::uint64_t lost_at_failure = 0;
  sim.schedule_at(util::SimTime::zero() + 1_us, [&] {
    backplane->set_failed(true);
    lost_at_failure = backplane->counters().lost_in_flight;
  });
  sim.run();
  EXPECT_EQ(lost_at_failure, 5u);
  EXPECT_EQ(backplane->counters().lost_in_flight, 5u);
  EXPECT_TRUE(log.empty());
}

// A tagged frame anywhere in the ring, not only at its head, keeps the
// sharded engine's window bound at or before its arrival, and is delivered
// under the boundary scope whatever the entries around it carry.

TEST_F(DeliveryRingTest, TaggedHubFrameBehindAnUntaggedOneKeepsItsTag) {
  build(Backplane::Config{});
  // Both minimum frames serialize back to back on the zero-jitter hub, so
  // the tagged one appends behind the untagged head.
  send(0, 1, 0, 1);
  send_tagged(2, 3, 0, 2);
  const std::int64_t prop = Backplane::Config{}.propagation_delay.ns();
  const std::int64_t tagged_arrival = 2 * kMinNs + prop;
  EXPECT_LE(sim.next_boundary_ns(), tagged_arrival);
  ASSERT_TRUE(sim.step());  // the untagged head
  ASSERT_EQ(log.size(), 1u);
  EXPECT_LE(sim.next_boundary_ns(), tagged_arrival);
  sim.run();
  const std::vector<Delivery> expected = {{1, kMinNs + prop, 1, false},
                                          {3, tagged_arrival, 2, true}};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sim.next_boundary_ns(), std::numeric_limits<std::int64_t>::max());
}

TEST_F(DeliveryRingTest, UntaggedSwitchFrameAtTheHeadLeavesTheTaggedOnesTag) {
  build(switched());
  // The tagged full-size frame arms the ring; the untagged minimum frame,
  // sent after it to another port, becomes the head.
  send_tagged(0, 1, kFullPayload, 1);
  send(2, 3, 0, 2);
  EXPECT_LE(sim.next_boundary_ns(), 2 * kFullNs);
  ASSERT_TRUE(sim.step());  // the untagged head
  ASSERT_EQ(log.size(), 1u);
  EXPECT_LE(sim.next_boundary_ns(), 2 * kFullNs);
  sim.run();
  const std::vector<Delivery> expected = {{3, 2 * kMinNs, 2, false},
                                          {1, 2 * kFullNs, 1, true}};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(sim.next_boundary_ns(), std::numeric_limits<std::int64_t>::max());
}

}  // namespace
}  // namespace drs::net
