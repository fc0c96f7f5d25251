// Packet and frame model.
//
// The simulator carries structured payloads (no byte serialization) but
// accounts for on-wire sizes exactly, because Fig. 1 of the paper is a
// bandwidth budget computation. Payloads are immutable and shared between the
// frames a hub fans out, so a broadcast costs O(receivers) pointer copies.
#pragma once

#include <cstdint>
#include <memory>

#include "net/addr.hpp"

namespace drs::net {

/// IP protocol discriminator for handler dispatch.
enum class Protocol : std::uint8_t {
  kIcmp,
  kUdp,
  kTcp,
  kDrsControl,  // DRS route discovery/installation messages
  kRip,         // reactive distance-vector baseline
  kOspf,        // reactive link-state baseline (hello + LSA)
};

// On-wire size constants (bytes). Classic Ethernet II + IPv4 numbers — the
// hardware generation the paper's clusters ran on.
inline constexpr std::uint32_t kEthHeaderBytes = 14;
inline constexpr std::uint32_t kEthFcsBytes = 4;
inline constexpr std::uint32_t kMinEthFrameBytes = 64;   // incl. header + FCS
inline constexpr std::uint32_t kMaxEthPayloadBytes = 1500;
inline constexpr std::uint32_t kEthPreambleBytes = 8;    // preamble + SFD
inline constexpr std::uint32_t kEthInterframeGapBytes = 12;
inline constexpr std::uint32_t kIpHeaderBytes = 20;

/// Concrete payload type, one tag per subclass. Protocol handlers downcast
/// with an integer compare on this tag (see payload_cast) instead of a
/// per-packet dynamic_cast — the delivery path runs millions of times per
/// simulated second on a saturated hub, and the RTTI walk was measurable.
enum class PayloadKind : std::uint8_t {
  kOpaque,  // untagged (test fixtures); payload_cast never matches it
  kIcmp,
  kUdp,
  kTcpSegment,
  kDrsControl,
  kRip,
  kOspfHello,
  kOspfLsa,
};

/// Base class for structured payloads. `wire_size` is the L4 size in bytes
/// (headers of the payload's own protocol included, IP/Ethernet excluded).
class Payload {
 public:
  Payload() = default;
  explicit Payload(PayloadKind kind) : kind_(kind) {}
  virtual ~Payload() = default;
  virtual std::uint32_t wire_size() const = 0;

  PayloadKind kind() const { return kind_; }

 private:
  PayloadKind kind_ = PayloadKind::kOpaque;
};

using PayloadPtr = std::shared_ptr<const Payload>;

/// Tag-checked downcast: null when the packet carries no payload or one of a
/// different concrete type. Each tagged payload declares `kKind` and stamps
/// it in its constructor, so this is exactly dynamic_cast's semantics for
/// the closed payload hierarchy at the cost of one byte compare.
template <typename T>
const T* payload_cast(const PayloadPtr& payload) {
  const Payload* p = payload.get();
  return (p != nullptr && p->kind() == T::kKind) ? static_cast<const T*>(p)
                                                 : nullptr;
}

inline constexpr std::uint8_t kDefaultTtl = 16;

struct Packet {
  Ipv4Addr src;
  Ipv4Addr dst;
  Protocol protocol = Protocol::kIcmp;
  std::uint8_t ttl = kDefaultTtl;
  PayloadPtr payload;
  /// Monotonic id assigned at send time; stable across forwarding hops.
  std::uint64_t id = 0;

  std::uint32_t ip_size() const {
    return kIpHeaderBytes + (payload ? payload->wire_size() : 0);
  }
};

struct Frame {
  MacAddr src;
  MacAddr dst;
  Packet packet;

  /// Total bytes occupying the medium, honoring the Ethernet minimum.
  /// Preamble/IFG overhead is a property of the medium (see Backplane), not
  /// of the frame.
  std::uint32_t wire_bytes() const {
    const std::uint32_t raw = kEthHeaderBytes + packet.ip_size() + kEthFcsBytes;
    return raw < kMinEthFrameBytes ? kMinEthFrameBytes : raw;
  }
};

}  // namespace drs::net
