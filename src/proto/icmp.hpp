// ICMP echo — the DRS link-check primitive (RFC 792 semantics).
//
// IcmpService auto-answers echo requests (the "answering requests" half of
// the DRS two-phase run process) and offers a ping() API with per-probe
// timeout and completion callback. Probes may be pinned to an interface,
// which is how a DRS daemon tests one particular (network, peer) link.
#pragma once

#include <cstdint>
#include <optional>

#include "net/host.hpp"
#include "util/flat_map.hpp"
#include "util/inline_function.hpp"

namespace drs::proto {

struct IcmpPayload final : net::Payload {
  static constexpr net::PayloadKind kKind = net::PayloadKind::kIcmp;
  IcmpPayload() : net::Payload(kKind) {}

  enum class Type : std::uint8_t { kEchoRequest, kEchoReply };

  Type type = Type::kEchoRequest;
  std::uint16_t ident = 0;
  std::uint16_t seq = 0;
  std::uint32_t data_bytes = 0;  // echo payload beyond the 8-byte ICMP header

  std::uint32_t wire_size() const override { return 8 + data_bytes; }
};

struct PingResult {
  bool success = false;
  util::Duration rtt = util::Duration::zero();
  std::uint16_t seq = 0;
};

/// Inline-capture completion callback (no heap allocation per probe); large
/// capture state belongs in the caller, referenced by pointer or index.
using PingCallback = util::InlineFunction<void(const PingResult&), 48>;

struct PingOptions {
  util::Duration timeout = util::Duration::millis(200);
  /// Force the probe out of a specific interface (next hop = destination,
  /// assumed on-link). Unset: normal routing.
  std::optional<net::NetworkId> via;
  std::uint32_t data_bytes = 0;
  /// When true (default) the service schedules a queue event per probe that
  /// fires the timeout. When false the caller owns expiry: it must track the
  /// deadline itself and call expire(seq) once it passes. (The batched probe
  /// sweep does not use this: it sends raw echoes with send_echo() and
  /// expires them with expire_raw().)
  bool managed_timeout = true;
};

class IcmpService {
 public:
  explicit IcmpService(net::Host& host);
  ~IcmpService();
  IcmpService(const IcmpService&) = delete;
  IcmpService& operator=(const IcmpService&) = delete;

  /// Sends one echo request; the callback fires exactly once, on reply or on
  /// timeout. Returns the sequence number used.
  std::uint16_t ping(net::Ipv4Addr dst, const PingOptions& options, PingCallback done);

  /// Fire-and-forget echo request for a caller that owns its own correlation
  /// and expiry (the batched probe sweep): same kPingSent trace, same sent
  /// counter, same frame as ping(), but no outstanding-table entry — replies
  /// route through the probe-reply hook, expiry through expire_raw(). The
  /// probe hot path thus skips the per-probe insert/find/erase churn of the
  /// outstanding table entirely.
  std::uint16_t send_echo(net::Ipv4Addr dst, const PingOptions& options);

  /// Consulted on every echo reply addressed to this service, before the
  /// outstanding-probe table; return true to claim the seq. Set once (at
  /// daemon construction) — registration plumbing, not per-probe work.
  using ProbeReplyHook = util::InlineFunction<bool(std::uint16_t), 16>;
  void set_probe_reply_hook(ProbeReplyHook hook) { reply_hook_ = std::move(hook); }

  /// Failure bookkeeping for a send_echo() probe whose deadline passed: the
  /// kPingLost trace and timed-out counter a managed timeout would emit. The
  /// caller runs its own result handling.
  void expire_raw(std::uint16_t seq);

  /// Cancels an outstanding probe (callback will not fire). Returns whether
  /// a probe with that sequence number was pending.
  bool cancel(std::uint16_t seq);

  /// Times out an unmanaged probe now (PingOptions::managed_timeout=false):
  /// runs the exact failure path a managed timeout event would — kPingLost
  /// trace, timed-out counter, failure callback. No-op for unknown seqs (the
  /// reply may have raced the caller's deadline scan).
  void expire(std::uint16_t seq) { finish(seq, /*success=*/false); }

  std::uint64_t echo_requests_answered() const { return answered_; }
  std::uint64_t probes_sent() const { return sent_; }
  std::uint64_t probes_timed_out() const { return timed_out_; }
  std::size_t outstanding() const { return outstanding_.size(); }

  /// Pre-sizes the outstanding table for `probes` concurrent managed pings.
  /// Only ping() enters that table; send_echo() probes never do.
  void reserve(std::size_t probes) { outstanding_.reserve(probes); }

 private:
  void on_packet(const net::Packet& packet, net::NetworkId in_ifindex);
  void finish(std::uint16_t seq, bool success);

  struct Outstanding {
    PingCallback done;
    util::SimTime sent_at;
    sim::EventHandle timeout;
  };

  net::Host& host_;
  std::uint16_t ident_;
  std::uint16_t next_seq_ = 1;
  util::FlatMap<std::uint16_t, Outstanding> outstanding_;
  std::uint64_t answered_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t timed_out_ = 0;
  ProbeReplyHook reply_hook_;
};

}  // namespace drs::proto
