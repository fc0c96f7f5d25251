// Medium frame/byte accounting, lossy/jittery media, and asymmetric NIC
// failures.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "proto/icmp.hpp"

namespace drs::net {
namespace {

using namespace drs::util::literals;

class TraceLossTest : public ::testing::Test {
 protected:
  explicit TraceLossTest(Backplane::Config backplane = {})
      : network(sim, {.node_count = 4, .backplane = backplane}) {
    for (NodeId i = 0; i < 4; ++i) {
      icmp.push_back(std::make_unique<proto::IcmpService>(network.host(i)));
    }
  }

  bool ping(NodeId from, Ipv4Addr to, util::Duration timeout = 50_ms) {
    bool ok = false;
    proto::PingOptions options;
    options.timeout = timeout;
    icmp[from]->ping(to, options,
                     [&](const proto::PingResult& r) { ok = r.success; });
    sim.run_for(timeout + 10_ms);
    return ok;
  }

  sim::Simulator sim;
  ClusterNetwork network;
  std::vector<std::unique_ptr<proto::IcmpService>> icmp;
};

// --- Medium accounting --------------------------------------------------------

TEST_F(TraceLossTest, OnePingCountsTwoMinimumFrames) {
  ASSERT_TRUE(ping(0, cluster_ip(0, 1)));
  // Echo request + reply, each padded to the 64-byte Ethernet minimum; the
  // default per_frame_overhead_bytes adds nothing.
  const Backplane::Counters& counters = network.backplane(0).counters();
  EXPECT_EQ(counters.frames, 2u);
  EXPECT_EQ(counters.bytes, 128u);
}

// --- Random loss --------------------------------------------------------------

class LossyTest : public TraceLossTest {
 protected:
  static Backplane::Config lossy() {
    Backplane::Config config;
    config.frame_loss_rate = 0.3;
    config.seed = 1234;
    return config;
  }
  LossyTest() : TraceLossTest(lossy()) {}
};

TEST_F(LossyTest, SomeFramesVanishButCountersBalance) {
  int successes = 0;
  const int attempts = 200;
  for (int i = 0; i < attempts; ++i) {
    if (ping(0, cluster_ip(0, 1), 5_ms)) ++successes;
  }
  // P[echo survives both ways] = 0.7^2 = 0.49; with 200 deterministic-seed
  // trials the count is comfortably inside (50, 150).
  EXPECT_GT(successes, 50);
  EXPECT_LT(successes, 150);
  const auto& counters = network.backplane(0).counters();
  EXPECT_GT(counters.lost_random, 0u);
  // Lost frames still consumed medium time, so they count as transmitted.
  EXPECT_LT(counters.lost_random, counters.frames);
  // Roughly 30 % of offered frames die; the seed is fixed, the band generous.
  const double loss = static_cast<double>(counters.lost_random) /
                      static_cast<double>(counters.frames);
  EXPECT_GT(loss, 0.2);
  EXPECT_LT(loss, 0.4);
}

TEST_F(LossyTest, LossIsDeterministicPerSeed) {
  // Two networks with identical config but different backplane ids draw
  // different streams; rebuilding the same network reproduces exactly.
  sim::Simulator sim2;
  ClusterNetwork network2(sim2, {.node_count = 4, .backplane = lossy()});
  proto::IcmpService a(network2.host(0));
  proto::IcmpService b(network2.host(1));
  // Mirror the same probe sequence on both instances.
  int first_run = 0, second_run = 0;
  for (int i = 0; i < 50; ++i) {
    if (ping(0, cluster_ip(0, 1), 5_ms)) ++first_run;
  }
  for (int i = 0; i < 50; ++i) {
    bool ok = false;
    proto::PingOptions options;
    options.timeout = 5_ms;
    a.ping(cluster_ip(0, 1), options,
           [&](const proto::PingResult& r) { ok = r.success; });
    sim2.run_for(15_ms);
    if (ok) ++second_run;
  }
  EXPECT_EQ(first_run, second_run);
}

TEST(Jitter, DelaysStayWithinBound) {
  sim::Simulator sim;
  Backplane::Config config;
  config.jitter = 100_us;
  config.propagation_delay = 5_us;
  ClusterNetwork network(sim, {.node_count = 2, .backplane = config});
  proto::IcmpService a(network.host(0));
  proto::IcmpService b(network.host(1));
  util::Duration min_rtt = util::Duration::max();
  util::Duration max_rtt = util::Duration::zero();
  for (int i = 0; i < 100; ++i) {
    proto::PingOptions options;
    options.timeout = 10_ms;
    a.ping(cluster_ip(0, 1), options, [&](const proto::PingResult& r) {
      ASSERT_TRUE(r.success);
      min_rtt = std::min(min_rtt, r.rtt);
      max_rtt = std::max(max_rtt, r.rtt);
    });
    sim.run_for(15_ms);
  }
  // Base RTT = 2 x (5.12 us serialization + 5 us propagation) ~ 20 us;
  // jitter adds up to 200 us across the round trip.
  EXPECT_GE(min_rtt, 20_us);
  EXPECT_LE(max_rtt, 20_us + 200_us + 1_us);
  EXPECT_GT(max_rtt - min_rtt, 20_us);  // jitter actually spread things
}

// --- Asymmetric NIC failures ---------------------------------------------------

TEST_F(TraceLossTest, TxOnlyFailureBlocksOutboundOnly) {
  network.host(0).nic(0).set_tx_failed(true);
  EXPECT_FALSE(network.host(0).nic(0).failed());  // not a full failure
  EXPECT_FALSE(ping(0, cluster_ip(0, 1)));        // our request cannot leave
  EXPECT_TRUE(ping(1, cluster_ip(1, 0)));         // other net unaffected
  // Inbound on net 0 still works: node 1 pings us and the request arrives,
  // but our reply is swallowed by the dead transmitter.
  EXPECT_FALSE(ping(1, cluster_ip(0, 0)));
  EXPECT_GT(network.host(0).nic(0).counters().rx_frames, 0u);
}

TEST_F(TraceLossTest, RxOnlyFailureBlocksInboundOnly) {
  network.host(1).nic(0).set_rx_failed(true);
  EXPECT_FALSE(ping(0, cluster_ip(0, 1)));  // request never delivered
  EXPECT_GT(network.host(1).nic(0).counters().rx_dropped, 0u);
  // The victim can still transmit on that NIC: its own probe goes out and
  // the reply dies on ITS rx — also a failure, but the TX path was exercised.
  EXPECT_FALSE(ping(1, cluster_ip(0, 0)));
  EXPECT_GT(network.host(1).nic(0).counters().tx_frames, 0u);
}

TEST_F(TraceLossTest, FullFailureIsTxAndRx) {
  network.host(2).nic(1).set_failed(true);
  EXPECT_TRUE(network.host(2).nic(1).failed());
  EXPECT_TRUE(network.host(2).nic(1).tx_failed());
  EXPECT_TRUE(network.host(2).nic(1).rx_failed());
  network.host(2).nic(1).set_failed(false);
  EXPECT_FALSE(network.host(2).nic(1).tx_failed());
}

}  // namespace
}  // namespace drs::net
