#include "proto/tcp_lite.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"

namespace drs::proto {
namespace {

using namespace drs::util::literals;

class TcpTest : public ::testing::Test {
 protected:
  TcpTest() : network(sim, {.node_count = 4, .backplane = {}}) {
    for (net::NodeId i = 0; i < 4; ++i) {
      services.push_back(std::make_unique<TcpService>(network.host(i)));
    }
  }

  TcpConnectionPtr accept_on(net::NodeId node, std::uint16_t port,
                             TcpConfig config = {}) {
    auto& slot = accepted_[node];
    services[node]->listen(port, [&slot](TcpConnectionPtr c) { slot = c; },
                           config);
    return nullptr;
  }

  sim::Simulator sim;
  net::ClusterNetwork network;
  std::vector<std::unique_ptr<TcpService>> services;
  std::map<net::NodeId, TcpConnectionPtr> accepted_;
};

TEST_F(TcpTest, HandshakeEstablishesBothSides) {
  accept_on(1, 80);
  auto client = services[0]->connect(net::cluster_ip(0, 1), 80);
  sim.run_for(100_ms);
  EXPECT_EQ(client->state(), TcpConnection::State::kEstablished);
  ASSERT_TRUE(accepted_[1]);
  EXPECT_EQ(accepted_[1]->state(), TcpConnection::State::kEstablished);
  EXPECT_EQ(client->peer(), net::cluster_ip(0, 1));
  EXPECT_EQ(client->peer_port(), 80);
}

TEST_F(TcpTest, ConnectToClosedPortResets) {
  auto client = services[0]->connect(net::cluster_ip(0, 1), 81);
  sim.run_for(100_ms);
  EXPECT_EQ(client->state(), TcpConnection::State::kReset);
}

TEST_F(TcpTest, BulkTransferDeliversEveryByteInOrder) {
  accept_on(1, 80);
  auto client = services[0]->connect(net::cluster_ip(0, 1), 80);
  sim.run_for(50_ms);
  std::uint64_t delivered = 0;
  bool monotone = true;
  accepted_[1]->on_receive = [&](std::uint64_t total) {
    monotone = monotone && total >= delivered;
    delivered = total;
  };
  client->offer(1'000'000);
  sim.run_for(2_s);
  EXPECT_EQ(delivered, 1'000'000u);
  EXPECT_TRUE(monotone);
  EXPECT_EQ(client->stats().bytes_acked, 1'000'000u);
  EXPECT_EQ(client->stats().retransmissions, 0u);  // clean network
}

TEST_F(TcpTest, OfferBeforeEstablishedIsBuffered) {
  accept_on(1, 80);
  auto client = services[0]->connect(net::cluster_ip(0, 1), 80);
  client->offer(5000);  // handshake not done yet
  sim.run_for(500_ms);
  ASSERT_TRUE(accepted_[1]);
  EXPECT_EQ(accepted_[1]->stats().bytes_delivered, 5000u);
}

TEST_F(TcpTest, CloseCompletesAfterDrain) {
  accept_on(1, 80);
  auto client = services[0]->connect(net::cluster_ip(0, 1), 80);
  client->offer(10'000);
  client->close();
  sim.run_for(2_s);
  EXPECT_EQ(client->state(), TcpConnection::State::kClosed);
  EXPECT_EQ(accepted_[1]->state(), TcpConnection::State::kClosed);
  EXPECT_EQ(accepted_[1]->stats().bytes_delivered, 10'000u);
}

TEST_F(TcpTest, SurvivesTransientBackplaneOutageViaRetransmit) {
  accept_on(1, 80, TcpConfig{});
  auto client = services[0]->connect(net::cluster_ip(0, 1), 80);
  sim.run_for(50_ms);
  client->offer(500'000);
  // Cut the only path mid-transfer for 600 ms, then restore (no DRS here —
  // this exercises pure TCP recovery through its own retransmission).
  sim.schedule_after(5_ms, [&] { network.backplane(0).set_failed(true); });
  sim.schedule_after(605_ms, [&] { network.backplane(0).set_failed(false); });
  sim.run_for(10_s);
  EXPECT_EQ(client->state(), TcpConnection::State::kEstablished);
  EXPECT_EQ(accepted_[1]->stats().bytes_delivered, 500'000u);
  EXPECT_GT(client->stats().retransmissions, 0u);
  EXPECT_GT(accepted_[1]->stats().max_delivery_gap, 500_ms);
}

TEST_F(TcpTest, PermanentOutageExhaustsRetriesAndResets) {
  TcpConfig config;
  config.max_retries = 4;
  config.initial_rto = 50_ms;
  config.max_rto = 500_ms;
  accept_on(1, 80);
  auto client = services[0]->connect(net::cluster_ip(0, 1), 80, config);
  sim.run_for(50_ms);
  network.backplane(0).set_failed(true);  // cut first, then offer data
  client->offer(10'000);
  sim.run_for(30_s);
  EXPECT_EQ(client->state(), TcpConnection::State::kReset);
}

TEST_F(TcpTest, FinSurvivesGoBackNTrim) {
  // Regression: data + FIN in flight when an outage forces go-back-N. The
  // RTO trim discards the queued FIN; it must be re-marked unsent so pump()
  // re-emits it after the data is recovered — otherwise the connection
  // deadlocks in FIN_WAIT with no timer armed.
  accept_on(1, 80);
  TcpConfig config;
  config.max_rto = 1_s;
  auto client = services[0]->connect(net::cluster_ip(0, 1), 80, config);
  sim.run_for(50_ms);
  client->offer(50'000);
  client->close();
  // Cut immediately so data segments AND the FIN are outstanding together.
  network.backplane(0).set_failed(true);
  sim.run_for(1_s);  // several RTO firings trim the in-flight tail
  network.backplane(0).set_failed(false);
  sim.run_for(30_s);
  EXPECT_EQ(client->state(), TcpConnection::State::kClosed);
  EXPECT_EQ(accepted_[1]->stats().bytes_delivered, 50'000u);
}

TEST_F(TcpTest, RtoBacksOffExponentially) {
  TcpConfig config;
  config.initial_rto = 100_ms;
  config.max_retries = 10;
  accept_on(1, 80);
  auto client = services[0]->connect(net::cluster_ip(0, 1), 80, config);
  sim.run_for(50_ms);
  network.backplane(0).set_failed(true);
  client->offer(100);
  sim.run_for(3_s);
  // RTO fired several times; the current RTO should have grown well beyond
  // the base (100 -> 200 -> 400 -> ...).
  EXPECT_GE(client->stats().rto_firings, 3u);
  EXPECT_GE(client->stats().current_rto, 400_ms);
}

TEST_F(TcpTest, SrttConvergesToPathRtt) {
  accept_on(1, 80);
  auto client = services[0]->connect(net::cluster_ip(0, 1), 80);
  client->offer(200'000);
  sim.run_for(5_s);
  // Path RTT is tens of microseconds (serialization + propagation); SRTT
  // must be positive and well under a millisecond.
  EXPECT_GT(client->stats().srtt_seconds, 0.0);
  EXPECT_LT(client->stats().srtt_seconds, 1e-3);
}

TEST_F(TcpTest, TwoConnectionsAreIndependent) {
  accept_on(1, 80);
  auto client_a = services[0]->connect(net::cluster_ip(0, 1), 80);
  sim.run_for(10_ms);
  auto first_accept = accepted_[1];
  auto client_b = services[2]->connect(net::cluster_ip(0, 1), 80);
  sim.run_for(10_ms);
  auto second_accept = accepted_[1];
  ASSERT_NE(first_accept, second_accept);
  client_a->offer(1000);
  client_b->offer(2000);
  sim.run_for(1_s);
  EXPECT_EQ(first_accept->stats().bytes_delivered, 1000u);
  EXPECT_EQ(second_accept->stats().bytes_delivered, 2000u);
}

TEST_F(TcpTest, StateChangeCallbackFires) {
  accept_on(1, 80);
  auto client = services[0]->connect(net::cluster_ip(0, 1), 80);
  std::vector<TcpConnection::State> states;
  client->on_state_change = [&](TcpConnection::State s) { states.push_back(s); };
  client->offer(100);
  client->close();
  sim.run_for(1_s);
  ASSERT_GE(states.size(), 2u);
  EXPECT_EQ(states.front(), TcpConnection::State::kEstablished);
  EXPECT_EQ(states.back(), TcpConnection::State::kClosed);
}

TEST(TcpSegmentPayload, DescribeAndWireSize) {
  TcpSegment segment;
  segment.src_port = 10;
  segment.dst_port = 20;
  segment.syn = true;
  segment.data_bytes = 100;
  EXPECT_EQ(segment.wire_size(), 120u);
}

}  // namespace
}  // namespace drs::proto
