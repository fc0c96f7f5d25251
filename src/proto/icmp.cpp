#include "proto/icmp.hpp"

#include <cassert>

#include "obs/macros.hpp"
#include "util/arena.hpp"
#include "util/log.hpp"

namespace drs::proto {

IcmpService::IcmpService(net::Host& host)
    : host_(host), ident_(static_cast<std::uint16_t>(host.id() + 1)) {
  host_.register_handler(net::Protocol::kIcmp,
                         [this](const net::Packet& p, net::NetworkId in_if) {
                           on_packet(p, in_if);
                         });
}

IcmpService::~IcmpService() {
  outstanding_.for_each(
      [](std::uint16_t, Outstanding& probe) { probe.timeout.cancel(); });
}

std::uint16_t IcmpService::ping(net::Ipv4Addr dst, const PingOptions& options,
                                PingCallback done) {
  const std::uint16_t seq = next_seq_++;
  // Pooled: the payload and its control block come from the simulation arena
  // and return to a free list when the last reference drops.
  auto payload = util::make_pooled<IcmpPayload>(host_.simulator().arena());
  payload->type = IcmpPayload::Type::kEchoRequest;
  payload->ident = ident_;
  payload->seq = seq;
  payload->data_bytes = options.data_bytes;

  net::Packet packet;
  packet.dst = dst;
  packet.protocol = net::Protocol::kIcmp;
  packet.payload = std::move(payload);

  ++sent_;
  DRS_TRACE_EVENT(host_.simulator().tracer(),
                  .at_ns = host_.simulator().now().ns(),
                  .kind = obs::TraceEventKind::kPingSent, .node = host_.id(),
                  .network = options.via.value_or(obs::kNoNetwork),
                  .a = seq, .b = static_cast<std::int64_t>(dst.value()));
  Outstanding probe;
  probe.done = std::move(done);
  probe.sent_at = host_.simulator().now();
  if (options.managed_timeout) {
    probe.timeout = host_.simulator().schedule_after(
        options.timeout, [this, seq] { finish(seq, /*success=*/false); });
  }
  outstanding_.insert(seq, std::move(probe));

  // A locally dropped probe (failed NIC, dead backplane) still runs its
  // timeout, so the caller always gets exactly one callback.
  if (options.via) {
    host_.send_via(*options.via, dst, std::move(packet));
  } else {
    host_.send(std::move(packet));
  }
  return seq;
}

std::uint16_t IcmpService::send_echo(net::Ipv4Addr dst,
                                     const PingOptions& options) {
  const std::uint16_t seq = next_seq_++;
  auto payload = util::make_pooled<IcmpPayload>(host_.simulator().arena());
  payload->type = IcmpPayload::Type::kEchoRequest;
  payload->ident = ident_;
  payload->seq = seq;
  payload->data_bytes = options.data_bytes;

  net::Packet packet;
  packet.dst = dst;
  packet.protocol = net::Protocol::kIcmp;
  packet.payload = std::move(payload);

  ++sent_;
  DRS_TRACE_EVENT(host_.simulator().tracer(),
                  .at_ns = host_.simulator().now().ns(),
                  .kind = obs::TraceEventKind::kPingSent, .node = host_.id(),
                  .network = options.via.value_or(obs::kNoNetwork),
                  .a = seq, .b = static_cast<std::int64_t>(dst.value()));
  if (options.via) {
    host_.send_via(*options.via, dst, std::move(packet));
  } else {
    host_.send(std::move(packet));
  }
  return seq;
}

void IcmpService::expire_raw(std::uint16_t seq) {
  ++timed_out_;
  DRS_TRACE_EVENT(host_.simulator().tracer(),
                  .at_ns = host_.simulator().now().ns(),
                  .kind = obs::TraceEventKind::kPingLost, .node = host_.id(),
                  .a = seq);
}

bool IcmpService::cancel(std::uint16_t seq) {
  Outstanding* probe = outstanding_.find(seq);
  if (probe == nullptr) return false;
  probe->timeout.cancel();
  outstanding_.erase(seq);
  return true;
}

void IcmpService::on_packet(const net::Packet& packet, net::NetworkId in_ifindex) {
  const IcmpPayload* icmp = net::payload_cast<IcmpPayload>(packet.payload);
  if (icmp == nullptr) return;

  if (icmp->type == IcmpPayload::Type::kEchoRequest) {
    ++answered_;
    auto reply = util::make_pooled<IcmpPayload>(host_.simulator().arena(), *icmp);
    reply->type = IcmpPayload::Type::kEchoReply;

    net::Packet out;
    // Reply from the address that was probed so the prober can correlate the
    // link it tested; routed normally (same subnet => same interface back).
    // Broadcast probes get a unicast reply from the receiving interface.
    out.src = net::is_broadcast_ip(packet.dst) ? host_.ip(in_ifindex) : packet.dst;
    out.dst = packet.src;
    out.protocol = net::Protocol::kIcmp;
    out.payload = std::move(reply);
    host_.send(std::move(out));
    return;
  }

  // Echo reply: correlate by (ident, seq). Raw (send_echo) probes are
  // claimed by the hook; everything else resolves through the outstanding
  // table. Sequence numbers come from one counter, so a seq is never both.
  if (icmp->ident != ident_) return;
  (void)in_ifindex;
  if (reply_hook_ && reply_hook_(icmp->seq)) return;
  finish(icmp->seq, /*success=*/true);
}

void IcmpService::finish(std::uint16_t seq, bool success) {
  Outstanding* slot = outstanding_.find(seq);
  if (slot == nullptr) return;  // late reply after timeout
  Outstanding probe = std::move(*slot);
  outstanding_.erase(seq);
  probe.timeout.cancel();
  if (!success) {
    ++timed_out_;
    DRS_TRACE_EVENT(host_.simulator().tracer(),
                    .at_ns = host_.simulator().now().ns(),
                    .kind = obs::TraceEventKind::kPingLost, .node = host_.id(),
                    .a = seq);
  }

  PingResult result;
  result.success = success;
  result.seq = seq;
  result.rtt = host_.simulator().now() - probe.sent_at;
  probe.done(result);
}

}  // namespace drs::proto
