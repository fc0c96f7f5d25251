#include "proto/tcp_lite.hpp"

#include <algorithm>
#include <cassert>

#include "obs/macros.hpp"
#include "util/arena.hpp"
#include "util/log.hpp"

namespace drs::proto {

// ---------------------------------------------------------------------------
// TcpConnection
// ---------------------------------------------------------------------------

TcpConnection::TcpConnection(TcpService& service, net::Ipv4Addr local_ip,
                             net::Ipv4Addr peer, std::uint16_t local_port,
                             std::uint16_t peer_port, TcpConfig config,
                             bool active_open)
    : service_(service),
      local_ip_(local_ip),
      peer_(peer),
      local_port_(local_port),
      peer_port_(peer_port),
      config_(config),
      state_(active_open ? State::kSynSent : State::kSynReceived),
      last_delivery_(service.host().simulator().now()) {}

void TcpConnection::offer(std::uint64_t bytes) {
  stats_.bytes_offered += bytes;
  offered_end_ += bytes;
  pump();
}

void TcpConnection::close() {
  fin_requested_ = true;
  pump();
}

void TcpConnection::enter(State next) {
  if (state_ == next) return;
  state_ = next;
  if (next == State::kClosed || next == State::kReset) {
    rto_timer_.cancel();
    service_.forget(*this);
  }
  if (on_state_change) on_state_change(next);
}

util::Duration TcpConnection::rto() const {
  util::Duration base = config_.initial_rto;
  if (srtt_ > 0.0) {
    base = util::Duration::from_seconds(srtt_ + std::max(4.0 * rttvar_, 0.01));
  }
  base = std::clamp(base, config_.min_rto, config_.max_rto);
  // Exponential backoff, saturating at max_rto.
  for (std::uint32_t i = 0; i < backoff_shift_ && base < config_.max_rto; ++i) {
    base = std::min(base * 2, config_.max_rto);
  }
  return base;
}

void TcpConnection::start_handshake() {
  send_segment(/*seq=*/0, /*len=*/0, /*syn=*/true, /*fin=*/false,
               /*is_retransmission=*/false);
}

void TcpConnection::send_segment(std::uint64_t seq, std::uint32_t len, bool syn,
                                 bool fin, bool is_retransmission) {
  auto segment =
      util::make_pooled<TcpSegment>(service_.host().simulator().arena());
  segment->src_port = local_port_;
  segment->dst_port = peer_port_;
  segment->syn = syn;
  segment->fin = fin;
  segment->seq = seq;
  segment->data_bytes = len;
  // Everything after the initial SYN carries an ACK.
  if (!(syn && state_ == State::kSynSent)) {
    segment->ack = true;
    segment->ack_no = rcv_nxt_;
  }

  ++stats_.segments_sent;
  if (is_retransmission) {
    ++stats_.retransmissions;
    DRS_TRACE_EVENT(service_.host().simulator().tracer(),
                    .at_ns = service_.host().simulator().now().ns(),
                    .kind = obs::TraceEventKind::kTcpRetransmit,
                    .node = service_.host().id(),
                    .a = static_cast<std::int64_t>(seq),
                    .b = static_cast<std::int64_t>(len));
  }

  const std::uint32_t seq_len = len + (syn ? 1u : 0u) + (fin ? 1u : 0u);
  if (seq_len > 0) {
    if (!is_retransmission) {
      // drs-lint: hotpath-purity-ok(amortized: in-flight list is bounded by the send window; capacity reached once)
      in_flight_.push_back(InFlight{seq, seq_len,
                                    service_.host().simulator().now(),
                                    /*retransmitted=*/false, syn, fin});
      snd_nxt_ = std::max(snd_nxt_, seq + seq_len);
    } else {
      for (auto& entry : in_flight_) {
        if (entry.seq == seq) entry.retransmitted = true;
      }
    }
    arm_rto();
  }
  service_.transmit(local_ip_, peer_, std::move(segment));
}

void TcpConnection::send_pure_ack() {
  auto segment =
      util::make_pooled<TcpSegment>(service_.host().simulator().arena());
  segment->src_port = local_port_;
  segment->dst_port = peer_port_;
  segment->ack = true;
  segment->ack_no = rcv_nxt_;
  segment->seq = snd_nxt_;
  ++stats_.segments_sent;
  service_.transmit(local_ip_, peer_, std::move(segment));
}

void TcpConnection::send_rst() {
  auto segment =
      util::make_pooled<TcpSegment>(service_.host().simulator().arena());
  segment->src_port = local_port_;
  segment->dst_port = peer_port_;
  segment->rst = true;
  segment->seq = snd_nxt_;
  service_.transmit(local_ip_, peer_, std::move(segment));
}

void TcpConnection::pump() {
  if (state_ != State::kEstablished && state_ != State::kFinWait) return;
  const std::uint64_t window =
      std::uint64_t{config_.window_segments} * config_.mss_bytes;
  while (snd_nxt_ < offered_end_ && snd_nxt_ - snd_una_ < window) {
    const auto len = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(config_.mss_bytes, offered_end_ - snd_nxt_));
    send_segment(snd_nxt_, len, /*syn=*/false, /*fin=*/false,
                 /*is_retransmission=*/false);
  }
  if (fin_requested_ && !fin_sent_ && snd_nxt_ == offered_end_ &&
      snd_nxt_ - snd_una_ < window) {
    fin_sent_ = true;
    send_segment(snd_nxt_, 0, /*syn=*/false, /*fin=*/true,
                 /*is_retransmission=*/false);
    if (state_ == State::kEstablished) enter(State::kFinWait);
  }
}

void TcpConnection::arm_rto() {
  rto_timer_.cancel();
  if (in_flight_.empty()) return;
  stats_.current_rto = rto();
  rto_timer_ = service_.host().simulator().schedule_after(stats_.current_rto,
                                                          [this] { on_rto(); });
}

void TcpConnection::on_rto() {
  if (in_flight_.empty()) return;
  ++stats_.rto_firings;
  DRS_TRACE_EVENT(service_.host().simulator().tracer(),
                  .at_ns = service_.host().simulator().now().ns(),
                  .kind = obs::TraceEventKind::kTcpRto,
                  .node = service_.host().id(),
                  .a = stats_.current_rto.ns(),
                  .b = static_cast<std::int64_t>(retries_));
  if (++retries_ > config_.max_retries) {
    DRS_INFO("tcp", "port %u -> %s: retry budget exhausted, resetting",
             // drs-lint: hotpath-purity-ok(formats once per connection reset, a terminal event, not per segment)
             local_port_, peer_.to_string().c_str());
    send_rst();
    enter(State::kReset);
    return;
  }
  ++backoff_shift_;
  // Go-back-N: retransmit only the oldest outstanding segment; the rest are
  // resent by pump() as the ACK clock restarts. Segments beyond the oldest
  // are removed from the in-flight list so they are not double-tracked — and
  // if the FIN is among them, it must be marked unsent again or pump() would
  // never re-emit it (a silent FIN_WAIT deadlock).
  InFlight oldest = in_flight_.front();
  for (auto it = in_flight_.begin() + 1; it != in_flight_.end(); ++it) {
    if (it->fin) fin_sent_ = false;
  }
  in_flight_.erase(in_flight_.begin() + 1, in_flight_.end());
  snd_nxt_ = oldest.seq + oldest.len;
  send_segment(oldest.seq, oldest.len - (oldest.syn ? 1u : 0u) - (oldest.fin ? 1u : 0u),
               oldest.syn, oldest.fin, /*is_retransmission=*/true);
}

void TcpConnection::handle_ack(std::uint64_t ack_no) {
  if (ack_no <= snd_una_) return;  // duplicate or stale
  bool sampled = false;
  while (!in_flight_.empty()) {
    const InFlight& front = in_flight_.front();
    if (front.seq + front.len > ack_no) break;
    if (!front.retransmitted && !sampled) {
      // Karn's rule: only un-retransmitted segments produce RTT samples.
      const double sample =
          (service_.host().simulator().now() - front.first_sent).to_seconds();
      if (srtt_ == 0.0) {
        srtt_ = sample;
        rttvar_ = sample / 2.0;
      } else {
        rttvar_ = 0.75 * rttvar_ + 0.25 * std::abs(srtt_ - sample);
        srtt_ = 0.875 * srtt_ + 0.125 * sample;
      }
      stats_.srtt_seconds = srtt_;
      sampled = true;
    }
    in_flight_.pop_front();
  }
  snd_una_ = ack_no;
  // A cumulative ACK can overtake snd_nxt_ after a go-back-N rewind: the
  // rewound data had already reached the receiver, only its ACKs were lost.
  // Resume transmission from the acknowledged point, not behind it.
  snd_nxt_ = std::max(snd_nxt_, snd_una_);
  // Data bytes acked excludes the SYN and FIN sequence slots.
  const std::uint64_t data_acked =
      std::min(snd_una_, offered_end_) - std::min<std::uint64_t>(1, snd_una_);
  stats_.bytes_acked = std::max(stats_.bytes_acked, data_acked);
  retries_ = 0;
  backoff_shift_ = 0;
  arm_rto();

  if (state_ == State::kSynSent || state_ == State::kSynReceived) {
    if (snd_una_ >= 1) {
      enter(State::kEstablished);
    }
  }
  if (fin_sent_ && snd_una_ >= offered_end_ + 1) {
    enter(State::kClosed);
    return;
  }
  pump();
}

void TcpConnection::on_segment(const TcpSegment& segment, net::Ipv4Addr src) {
  (void)src;
  if (segment.rst) {
    DRS_INFO("tcp", "port %u: reset by peer", local_port_);
    enter(State::kReset);
    return;
  }

  if (segment.syn) {
    if (state_ == State::kSynReceived && rcv_nxt_ == 0) {
      // Fresh passive open (or a retransmitted SYN): consume it and answer
      // SYN+ACK.
      rcv_nxt_ = segment.seq + 1;
      start_handshake_reply();
      if (segment.ack) handle_ack(segment.ack_no);
      return;
    }
    if (state_ == State::kSynSent) {
      // SYN+ACK from the passive side.
      rcv_nxt_ = segment.seq + 1;
      if (segment.ack) handle_ack(segment.ack_no);
      send_pure_ack();
      return;
    }
    // Retransmitted SYN on an existing flow: re-ACK.
    send_pure_ack();
    return;
  }

  if (segment.ack) handle_ack(segment.ack_no);

  const std::uint32_t seq_len = segment.data_bytes + (segment.fin ? 1u : 0u);
  if (seq_len == 0) return;  // pure ACK

  if (segment.seq != rcv_nxt_) {
    // Out of order (go-back-N receiver) or duplicate: re-ACK what we have.
    send_pure_ack();
    return;
  }

  rcv_nxt_ += seq_len;
  if (segment.data_bytes > 0) {
    stats_.bytes_delivered += segment.data_bytes;
    const util::SimTime now = service_.host().simulator().now();
    stats_.max_delivery_gap = std::max(stats_.max_delivery_gap, now - last_delivery_);
    last_delivery_ = now;
    if (on_receive) on_receive(stats_.bytes_delivered);
  }
  if (segment.fin) {
    peer_fin_seen_ = true;
  }
  send_pure_ack();
  if (peer_fin_seen_ && state_ == State::kEstablished && !fin_requested_) {
    // One-directional usage: the receiving side closes once the peer is done.
    enter(State::kClosed);
  }
}

void TcpConnection::start_handshake_reply() {
  send_segment(/*seq=*/0, /*len=*/0, /*syn=*/true, /*fin=*/false,
               /*is_retransmission=*/false);
}

// ---------------------------------------------------------------------------
// TcpService
// ---------------------------------------------------------------------------

TcpService::TcpService(net::Host& host) : host_(host) {
  host_.register_handler(net::Protocol::kTcp,
                         [this](const net::Packet& p, net::NetworkId in_if) {
                           on_packet(p, in_if);
                         });
}

void TcpService::listen(std::uint16_t port, AcceptHandler on_accept) {
  listen(port, std::move(on_accept), TcpConfig{});
}

void TcpService::listen(std::uint16_t port, AcceptHandler on_accept,
                        TcpConfig config) {
  listeners_[port] = Listener{std::move(on_accept), config};
}

TcpConnectionPtr TcpService::connect(net::Ipv4Addr dst, std::uint16_t dst_port) {
  return connect(dst, dst_port, TcpConfig{});
}

TcpConnectionPtr TcpService::connect(net::Ipv4Addr dst, std::uint16_t dst_port,
                                     TcpConfig config) {
  const std::uint16_t local_port = next_ephemeral_++;
  // Bind the local address now (classic BSD behaviour): the interface the
  // route currently prefers. Later route changes must not rebind it.
  const auto route = host_.routing_table().lookup(dst);
  const net::Ipv4Addr local_ip =
      route ? host_.ip(route->out_ifindex) : host_.ip(net::kNetworkA);
  // drs-lint: raw-new-ok(private ctor blocks make_shared; owned immediately)
  TcpConnectionPtr connection(new TcpConnection(*this, local_ip, dst, local_port,
                                                dst_port, config,
                                                /*active_open=*/true));
  flows_[FlowKey{dst.value(), dst_port, local_port}] = connection;
  connection->start_handshake();
  return connection;
}

void TcpService::on_packet(const net::Packet& packet, net::NetworkId in_ifindex) {
  (void)in_ifindex;
  const TcpSegment* segment = net::payload_cast<TcpSegment>(packet.payload);
  if (segment == nullptr) return;

  const FlowKey key{packet.src.value(), segment->src_port, segment->dst_port};
  auto flow = flows_.find(key);
  if (flow != flows_.end()) {
    // Keep the connection alive through the callback even if it closes.
    TcpConnectionPtr connection = flow->second;
    connection->on_segment(*segment, packet.src);
    return;
  }

  if (segment->syn && !segment->ack) {
    auto listener = listeners_.find(segment->dst_port);
    if (listener != listeners_.end()) {
      TcpConnectionPtr connection(
          // drs-lint: raw-new-ok(private ctor blocks make_shared; owned immediately)
          // drs-lint: hotpath-purity-ok(once per accepted connection on SYN, not per segment)
          new TcpConnection(*this, packet.dst, packet.src, segment->dst_port,
                            segment->src_port, listener->second.config,
                            /*active_open=*/false));
      flows_[key] = connection;
      connection->on_segment(*segment, packet.src);
      listener->second.on_accept(connection);
      return;
    }
  }
  // No matching flow or listener: refuse (except for RSTs, to avoid loops).
  if (!segment->rst) {
    auto rst = util::make_pooled<TcpSegment>(host_.simulator().arena());
    rst->src_port = segment->dst_port;
    rst->dst_port = segment->src_port;
    rst->rst = true;
    transmit(packet.dst, packet.src, std::move(rst));
  }
}

void TcpService::transmit(net::Ipv4Addr src, net::Ipv4Addr dst,
                          std::shared_ptr<TcpSegment> segment) {
  net::Packet packet;
  packet.src = src;  // pinned per connection; stable across route failovers
  packet.dst = dst;
  packet.protocol = net::Protocol::kTcp;
  packet.payload = std::move(segment);
  host_.send(std::move(packet));
}

void TcpService::forget(TcpConnection& connection) {
  flows_.erase(FlowKey{connection.peer().value(), connection.peer_port(),
                       connection.local_port()});
}

}  // namespace drs::proto
