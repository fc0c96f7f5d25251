#include "net/backplane.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace drs::net {
namespace {

using namespace drs::util::literals;

struct FixedPayload final : Payload {
  std::uint32_t size;
  explicit FixedPayload(std::uint32_t s) : size(s) {}
  std::uint32_t wire_size() const override { return size; }
};

/// Records every frame delivered to it.
struct RecordingSink final : FrameSink {
  struct Arrival {
    NetworkId ifindex;
    util::SimTime at;
    std::uint64_t packet_id;
  };
  std::vector<Arrival> arrivals;
  sim::Simulator* sim = nullptr;
  void on_frame(NetworkId ifindex, const Frame& frame) override {
    arrivals.push_back({ifindex, sim->now(), frame.packet.id});
  }
};

Frame make_frame(MacAddr src, MacAddr dst, std::uint32_t payload_bytes,
                 std::uint64_t id = 0) {
  Frame f;
  f.src = src;
  f.dst = dst;
  f.packet.payload = std::make_shared<FixedPayload>(payload_bytes);
  f.packet.id = id;
  return f;
}

class BackplaneTest : public ::testing::Test {
 protected:
  BackplaneTest() {
    for (int i = 0; i < 3; ++i) {
      sinks[i].sim = &sim;
      nics.push_back(std::make_unique<Nic>(
          static_cast<NodeId>(i), 0, cluster_mac(0, static_cast<NodeId>(i)),
          cluster_ip(0, static_cast<NodeId>(i)), sinks[i]));
    }
  }

  void attach_all(Backplane& bp) {
    for (auto& nic : nics) bp.attach(*nic);
  }

  sim::Simulator sim;
  RecordingSink sinks[3];
  std::vector<std::unique_ptr<Nic>> nics;
};

TEST_F(BackplaneTest, UnicastReachesAddresseeOnly) {
  Backplane bp(sim, 0, {});
  attach_all(bp);
  nics[0]->send(make_frame(nics[0]->mac(), nics[1]->mac(), 100, 7));
  sim.run();
  ASSERT_EQ(sinks[1].arrivals.size(), 1u);
  EXPECT_EQ(sinks[1].arrivals[0].packet_id, 7u);
  EXPECT_TRUE(sinks[2].arrivals.empty());  // filtered by MAC
  // The delivery index short-circuits the bystander: its filter never runs.
  EXPECT_EQ(nics[2]->counters().rx_filtered, 0u);
  EXPECT_TRUE(sinks[0].arrivals.empty());  // sender does not hear itself
}

TEST_F(BackplaneTest, DuplicateMacDisablesDeliveryIndex) {
  // Two NICs sharing a MAC is outside the closed-cluster addressing plan, but
  // a hub would deliver to both — so the index must stand down and fan out.
  Backplane bp(sim, 0, {});
  attach_all(bp);
  RecordingSink clone_sink;
  clone_sink.sim = &sim;
  Nic clone(9, 0, nics[1]->mac(), cluster_ip(0, 9), clone_sink);
  bp.attach(clone);
  nics[0]->send(make_frame(nics[0]->mac(), nics[1]->mac(), 100, 5));
  sim.run();
  ASSERT_EQ(sinks[1].arrivals.size(), 1u);
  ASSERT_EQ(clone_sink.arrivals.size(), 1u);
  EXPECT_EQ(clone_sink.arrivals[0].packet_id, 5u);
  // The fan-out walk also means bystanders inspect the frame again.
  EXPECT_EQ(nics[2]->counters().rx_filtered, 1u);
}

TEST_F(BackplaneTest, BroadcastReachesEveryoneElse) {
  Backplane bp(sim, 0, {});
  attach_all(bp);
  nics[0]->send(make_frame(nics[0]->mac(), MacAddr::broadcast(), 100));
  sim.run();
  EXPECT_EQ(sinks[1].arrivals.size(), 1u);
  EXPECT_EQ(sinks[2].arrivals.size(), 1u);
  EXPECT_TRUE(sinks[0].arrivals.empty());
}

TEST_F(BackplaneTest, DeliveryTimeIsSerializationPlusPropagation) {
  Backplane::Config config;
  config.bits_per_second = 100e6;
  config.propagation_delay = 5_us;
  Backplane bp(sim, 0, config);
  attach_all(bp);
  // 1000-byte payload: frame = 14 + 20 + 1000 + 4 = 1038 B = 8304 bits
  // => 83.04 us at 100 Mb/s, + 5 us propagation.
  nics[0]->send(make_frame(nics[0]->mac(), nics[1]->mac(), 1000));
  sim.run();
  ASSERT_EQ(sinks[1].arrivals.size(), 1u);
  EXPECT_EQ(sinks[1].arrivals[0].at.ns(), 83'040 + 5'000);
}

TEST_F(BackplaneTest, ContentionSerializesFifo) {
  Backplane::Config config;
  config.bits_per_second = 100e6;
  config.propagation_delay = util::Duration::zero();
  Backplane bp(sim, 0, config);
  attach_all(bp);
  // Two frames offered at t=0 share the medium: the second's delivery is
  // delayed by the first's serialization time (two minimum frames of
  // 64 B = 512 bits => 5.12 us each).
  nics[0]->send(make_frame(nics[0]->mac(), nics[2]->mac(), 0, 1));
  nics[1]->send(make_frame(nics[1]->mac(), nics[2]->mac(), 0, 2));
  sim.run();
  ASSERT_EQ(sinks[2].arrivals.size(), 2u);
  EXPECT_EQ(sinks[2].arrivals[0].at.ns(), 5'120);
  EXPECT_EQ(sinks[2].arrivals[1].at.ns(), 10'240);
  EXPECT_DOUBLE_EQ(bp.busy_seconds(), 10'240e-9);
}

TEST_F(BackplaneTest, FailedBackplaneDropsOffered) {
  Backplane bp(sim, 0, {});
  attach_all(bp);
  bp.set_failed(true);
  nics[0]->send(make_frame(nics[0]->mac(), nics[1]->mac(), 10));
  sim.run();
  EXPECT_TRUE(sinks[1].arrivals.empty());
  EXPECT_EQ(bp.counters().dropped_failed, 1u);
}

TEST_F(BackplaneTest, FailureLosesInFlightFrames) {
  Backplane::Config config;
  config.propagation_delay = 100_us;
  Backplane bp(sim, 0, config);
  attach_all(bp);
  nics[0]->send(make_frame(nics[0]->mac(), nics[1]->mac(), 10));
  // Kill the medium while the frame is propagating.
  sim.schedule_after(20_us, [&] { bp.set_failed(true); });
  sim.run();
  EXPECT_TRUE(sinks[1].arrivals.empty());
  EXPECT_EQ(bp.counters().lost_in_flight, 1u);
}

TEST_F(BackplaneTest, RestoreAfterFailureDeliversAgain) {
  Backplane bp(sim, 0, {});
  attach_all(bp);
  bp.set_failed(true);
  bp.set_failed(false);
  nics[0]->send(make_frame(nics[0]->mac(), nics[1]->mac(), 10));
  sim.run();
  EXPECT_EQ(sinks[1].arrivals.size(), 1u);
}

TEST_F(BackplaneTest, FailedSenderNicDrops) {
  Backplane bp(sim, 0, {});
  attach_all(bp);
  nics[0]->set_failed(true);
  nics[0]->send(make_frame(nics[0]->mac(), nics[1]->mac(), 10));
  sim.run();
  EXPECT_TRUE(sinks[1].arrivals.empty());
  EXPECT_EQ(nics[0]->counters().tx_dropped, 1u);
}

TEST_F(BackplaneTest, FailedReceiverNicDrops) {
  Backplane bp(sim, 0, {});
  attach_all(bp);
  nics[1]->set_failed(true);
  nics[0]->send(make_frame(nics[0]->mac(), nics[1]->mac(), 10));
  sim.run();
  EXPECT_TRUE(sinks[1].arrivals.empty());
  EXPECT_EQ(nics[1]->counters().rx_dropped, 1u);
  // The unrelated third NIC is skipped by the delivery index entirely.
  EXPECT_EQ(nics[2]->counters().rx_filtered, 0u);
}

TEST_F(BackplaneTest, BacklogLimitDropsExcess) {
  Backplane::Config config;
  config.bits_per_second = 1e6;  // slow: min frame = 512 us
  config.max_backlog = 1_ms;
  Backplane bp(sim, 0, config);
  attach_all(bp);
  int sent = 0;
  for (int i = 0; i < 10; ++i) {
    nics[0]->send(make_frame(nics[0]->mac(), nics[1]->mac(), 0));
    ++sent;
  }
  sim.run();
  EXPECT_GT(bp.counters().dropped_backlog, 0u);
  EXPECT_EQ(sinks[1].arrivals.size() + bp.counters().dropped_backlog,
            static_cast<std::size_t>(sent));
}

TEST_F(BackplaneTest, DetachedNicCannotSend) {
  // nics[0] never attached anywhere.
  nics[0]->send(make_frame(nics[0]->mac(), nics[1]->mac(), 10));
  EXPECT_EQ(nics[0]->counters().tx_dropped, 1u);
}

}  // namespace
}  // namespace drs::net
