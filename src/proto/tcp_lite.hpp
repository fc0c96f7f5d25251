// TCP-lite: a reliable byte stream with the retransmission machinery that the
// paper's transparency claim hinges on ("this new route is often found in the
// time of a TCP retransmit, so server applications are unaware that a network
// failure has occurred").
//
// Implemented features: three-way handshake, cumulative ACKs, go-back-N
// retransmission, Jacobson/Karn RTT estimation with exponential RTO backoff,
// FIN teardown, retry-exhaustion reset. Deliberately omitted (irrelevant to
// the reproduced experiments, documented deviation): congestion control
// (fixed window — the modeled clusters are dedicated LANs), SACK, out-of-order
// reassembly.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>

#include "net/host.hpp"

namespace drs::proto {

struct TcpSegment final : net::Payload {
  static constexpr net::PayloadKind kKind = net::PayloadKind::kTcpSegment;
  TcpSegment() : net::Payload(kKind) {}

  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  bool syn = false;
  bool ack = false;
  bool fin = false;
  bool rst = false;
  std::uint64_t seq = 0;     // offset of the first payload byte (SYN/FIN take one)
  std::uint64_t ack_no = 0;  // next byte expected (valid when ack)
  std::uint32_t data_bytes = 0;

  std::uint32_t wire_size() const override { return 20 + data_bytes; }
};

struct TcpConfig {
  std::uint32_t mss_bytes = 1460;
  std::uint32_t window_segments = 8;
  util::Duration initial_rto = util::Duration::millis(500);
  util::Duration min_rto = util::Duration::millis(200);
  util::Duration max_rto = util::Duration::seconds(60);
  /// Consecutive unanswered (re)transmissions before the connection resets.
  std::uint32_t max_retries = 8;
};

class TcpService;

class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  enum class State : std::uint8_t {
    kSynSent,
    kSynReceived,
    kEstablished,
    kFinWait,    // we sent FIN, waiting for its ACK
    kClosed,     // orderly shutdown completed
    kReset,      // retry exhaustion or peer RST
  };

  /// Queues `bytes` of application data for transmission.
  void offer(std::uint64_t bytes);
  /// Half-close after everything offered so far is delivered.
  void close();

  State state() const { return state_; }
  net::Ipv4Addr peer() const { return peer_; }
  /// The local address this connection is bound to. Pinned at open time and
  /// never rebound — when DRS detours the route over the other network, the
  /// segments keep this source address (weak host model), which is exactly
  /// what keeps the flow's 4-tuple stable across a failover.
  net::Ipv4Addr local_ip() const { return local_ip_; }
  std::uint16_t local_port() const { return local_port_; }
  std::uint16_t peer_port() const { return peer_port_; }

  /// Fires with the cumulative in-order byte count each time data arrives.
  /// Bound once when the workload wires up a flow, not per segment.
  std::function<void(std::uint64_t delivered_total)> on_receive;
  std::function<void(State)> on_state_change;

  struct Stats {
    std::uint64_t bytes_offered = 0;
    std::uint64_t bytes_acked = 0;
    std::uint64_t bytes_delivered = 0;  // receive side, in order
    std::uint64_t segments_sent = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t rto_firings = 0;
    double srtt_seconds = 0.0;
    util::Duration current_rto = util::Duration::zero();
    /// Longest gap between consecutive in-order deliveries while established;
    /// this is the application-visible stall used by the failover benches.
    util::Duration max_delivery_gap = util::Duration::zero();
  };
  const Stats& stats() const { return stats_; }

 private:
  friend class TcpService;
  TcpConnection(TcpService& service, net::Ipv4Addr local_ip, net::Ipv4Addr peer,
                std::uint16_t local_port, std::uint16_t peer_port,
                TcpConfig config, bool active_open);

  void start_handshake();
  void start_handshake_reply();
  void on_segment(const TcpSegment& segment, net::Ipv4Addr src);
  void pump();  // transmit while window allows
  void send_segment(std::uint64_t seq, std::uint32_t len, bool syn, bool fin,
                    bool is_retransmission);
  void send_pure_ack();
  void send_rst();
  void arm_rto();
  void on_rto();
  void handle_ack(std::uint64_t ack_no);
  void enter(State next);
  util::Duration rto() const;

  struct InFlight {
    std::uint64_t seq = 0;
    std::uint32_t len = 0;  // sequence-space length (data, or 1 for SYN/FIN)
    util::SimTime first_sent;
    bool retransmitted = false;
    bool syn = false;
    bool fin = false;
  };

  TcpService& service_;
  net::Ipv4Addr local_ip_;
  net::Ipv4Addr peer_;
  std::uint16_t local_port_;
  std::uint16_t peer_port_;
  TcpConfig config_;
  State state_;

  // Send side (sequence space: SYN = seq 0, data starts at 1).
  std::uint64_t snd_una_ = 0;
  std::uint64_t snd_nxt_ = 0;
  std::uint64_t offered_end_ = 1;  // first unusable seq (data queued so far + 1)
  bool fin_requested_ = false;
  bool fin_sent_ = false;
  std::deque<InFlight> in_flight_;
  std::uint32_t retries_ = 0;
  sim::EventHandle rto_timer_;
  double srtt_ = 0.0;    // seconds; 0 = no sample yet
  double rttvar_ = 0.0;  // seconds
  std::uint32_t backoff_shift_ = 0;

  // Receive side.
  std::uint64_t rcv_nxt_ = 0;
  bool peer_fin_seen_ = false;
  util::SimTime last_delivery_;

  Stats stats_;
};

using TcpConnectionPtr = std::shared_ptr<TcpConnection>;
using AcceptHandler = std::function<void(TcpConnectionPtr)>;

class TcpService {
 public:
  explicit TcpService(net::Host& host);
  TcpService(const TcpService&) = delete;
  TcpService& operator=(const TcpService&) = delete;

  void listen(std::uint16_t port, AcceptHandler on_accept);
  void listen(std::uint16_t port, AcceptHandler on_accept, TcpConfig config);
  TcpConnectionPtr connect(net::Ipv4Addr dst, std::uint16_t dst_port);
  TcpConnectionPtr connect(net::Ipv4Addr dst, std::uint16_t dst_port, TcpConfig config);

  net::Host& host() { return host_; }

 private:
  friend class TcpConnection;
  struct FlowKey {
    std::uint32_t peer_ip;
    std::uint16_t peer_port;
    std::uint16_t local_port;
    auto operator<=>(const FlowKey&) const = default;
  };

  void on_packet(const net::Packet& packet, net::NetworkId in_ifindex);
  void transmit(net::Ipv4Addr src, net::Ipv4Addr dst,
                std::shared_ptr<TcpSegment> segment);
  void forget(TcpConnection& connection);

  struct Listener {
    AcceptHandler on_accept;
    TcpConfig config;
  };

  net::Host& host_;
  std::map<std::uint16_t, Listener> listeners_;
  std::map<FlowKey, TcpConnectionPtr> flows_;
  std::uint16_t next_ephemeral_ = 40000;
};

}  // namespace drs::proto
