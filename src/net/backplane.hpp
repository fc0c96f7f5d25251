// Backplane model: shared-medium hub (the paper's 1999 hardware) or a
// store-and-forward switch (the modern extension).
//
// kHub — a transmission occupies the whole medium for its serialization time
// and is then delivered to *every* other attached NIC after the propagation
// delay (the NIC MAC filter discards frames not addressed to it). Contention
// is FIFO serialization of the single medium. This is what makes Fig. 1's
// shared-bandwidth-budget measurement meaningful at packet level.
//
// Delivery index: a unicast frame's MAC-filter reject is a pure no-op at the
// protocol level, so the hub resolves the destination through a flat MAC
// index instead of offering the frame to all N NICs — O(1) per frame instead
// of the O(N) walk that made full-mesh probing O(N^2) overall. Timing,
// contention, loss, and every delivered frame are unchanged; only the
// bystanders' rx_filtered counters stop ticking. Broadcasts (and the
// pathological duplicate-MAC case) still fan out to everyone.
//
// kSwitch — every NIC has its own full-duplex port. A frame serializes into
// the switch on the sender's ingress port, then serializes out of the
// destination's egress port (store-and-forward); each port queues
// independently, so flows between disjoint pairs do not contend. Broadcasts
// replicate onto every egress port. Monitoring cost per port becomes O(N)
// instead of the hub's O(N^2) shared load — the bench_fig1 extension
// quantifies what that buys the paper's Fig. 1.
//
// Delivery ring: every frame in flight, hub or switch, waits in one ring
// sorted on (arrival, rank), and the ring is the backplane's
// sim::SortedSource: the simulator holds only its head, outside the timing
// wheel, and no delivery pushes or pops a wheel event. Each entry's queue
// rank is claimed at transmit — exactly where a per-frame event would be
// pushed — so every delivery fires at the precise (time, rank) coordinate
// that event would have occupied, and same-instant interleaving with
// unrelated events is unchanged. Ranks are claimed under the entity the
// backplane was built in (sim::EntityScope), so a shared medium's
// deliveries order by its own counter, not by whichever sender's entity
// happened to transmit. A zero-jitter hub serializes FIFO, so its arrivals
// come in (time, rank) order and every entry appends; a jittered arrival or
// a switch frame to an idle egress port may land mid-ring, and one that
// lands at the head moves the armed head there. The armed head is
// therefore always the ring's minimum (time, rank), so
// Simulator::peek_next() — and with it the probe sweep's inline sends —
// sees the earliest pending delivery. Each entry also keeps the boundary
// tag its transmit ran under and is delivered under it, and the source
// reports whether it holds a tagged entry, so the sharded engine's window
// bound sees tagged frames anywhere in the ring (docs/SHARDING.md). Under
// saturation the simulator's pending work stays one head per backplane no
// matter how deep the backlog runs.
//
// Either way, the backplane is one of the 2 shared failure components of the
// survivability model: when failed it drops everything offered, and
// set_failed counts every frame still in the ring lost at once.
//
// Backplane::Medium holds the medium's state and the rules every offered
// frame goes through: the failed flag, the shared transmitter's busy-until
// clock, the backlog bound, serialization time, loss draws, busy seconds and
// the counters. The sharded fleet's relay oracle (cluster/partition.cpp)
// holds a Medium of its own and replays the relay hub's offers through it,
// so both fleet engines run one copy of the hub's arithmetic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/nic.hpp"
#include "sim/simulator.hpp"
#include "util/flat_map.hpp"
#include "util/rng.hpp"

namespace drs::net {

enum class MediumKind : std::uint8_t {
  kHub,     // shared medium, half-duplex, global contention
  kSwitch,  // per-port store-and-forward, full-duplex
};

class Backplane {
 public:
  struct Config {
    MediumKind kind = MediumKind::kHub;  // the paper's clusters used hubs
    double bits_per_second = 100e6;  // the paper evaluates a 100 Mb/s network
    util::Duration propagation_delay = util::Duration::micros(5);
    /// Per-frame medium overhead in addition to Frame::wire_bytes(). Default
    /// 0 reproduces the paper's Fig. 1 anchor; set to kEthPreambleBytes +
    /// kEthInterframeGapBytes (20) for full 802.3 accounting.
    std::uint32_t per_frame_overhead_bytes = 0;
    /// Transmissions whose queueing delay would exceed this are dropped,
    /// modeling adapter backlog limits under saturation.
    util::Duration max_backlog = util::Duration::seconds(10);
    /// Probability that a frame is corrupted on the medium (lost for every
    /// receiver, as on a real hub where the FCS fails everywhere). The DRS
    /// SUSPECT state exists exactly to ride out this kind of transient loss.
    double frame_loss_rate = 0.0;
    /// Uniform extra delivery delay in [0, jitter] per frame (shared by all
    /// receivers of that frame).
    util::Duration jitter = util::Duration::zero();
    /// Seed for the loss/jitter stream; combined with the backplane id so
    /// the two networks draw independently.
    std::uint64_t seed = 0xBACC91A7ull;
  };

  struct Counters {
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;          // wire bytes incl. per-frame overhead
    std::uint64_t dropped_failed = 0;  // offered while the backplane was down
    std::uint64_t dropped_backlog = 0;
    std::uint64_t lost_in_flight = 0;  // in flight when the backplane failed
    std::uint64_t lost_random = 0;     // frame_loss_rate corruption
  };

  /// The medium's state and per-frame rules (see the file comment).
  class Medium {
   public:
    /// The loss/jitter stream is Rng(config.seed, id).
    Medium(const Config& config, NetworkId id)
        : config_(config), rng_(config.seed, id) {}

    const Config& config() const { return config_; }
    bool failed() const { return failed_; }
    /// When the shared transmitter has sent everything offered to it.
    util::SimTime busy_until() const { return busy_until_; }
    double busy_seconds() const { return busy_seconds_; }
    const Counters& counters() const { return counters_; }

    /// Serialization time of a frame of `wire_bytes` on this medium.
    util::Duration serialization_time(std::uint32_t wire_bytes) const;

    /// Offers a frame of `wire_bytes` at `now` to the shared transmitter.
    /// Returns when its last bit reaches the far end, or nothing when the
    /// frame is dropped (medium failed, backlog bound passed) or corrupted.
    std::optional<util::SimTime> offer(util::SimTime now,
                                       std::uint32_t wire_bytes) {
      return offer(now, wire_bytes, busy_until_);
    }
    /// The same rules on a transmitter with its own clock (a switch port).
    std::optional<util::SimTime> offer(util::SimTime now,
                                       std::uint32_t wire_bytes,
                                       util::SimTime& busy_until);

    /// Fails or restores the medium at `now`; false if it is already in that
    /// state. Either direction leaves the shared transmitter idle at `now`
    /// and counts the `in_flight` deliveries it cuts off as lost.
    bool set_failed(bool failed, util::SimTime now, std::uint64_t in_flight);

    /// A uniform extra delay in [0, jitter]; only call with jitter on.
    util::Duration draw_jitter();

   private:
    Config config_;
    util::Rng rng_;
    bool failed_ = false;
    util::SimTime busy_until_ = util::SimTime::zero();
    double busy_seconds_ = 0.0;
    Counters counters_;
  };

  Backplane(sim::Simulator& sim, NetworkId id, Config config);

  NetworkId id() const { return id_; }
  const Config& config() const { return medium_.config(); }

  void attach(Nic& nic);

  bool failed() const { return medium_.failed(); }
  /// Failing the backplane drops every in-flight delivery and counts it in
  /// lost_in_flight at once; restoring it starts from an idle medium.
  void set_failed(bool failed);

  /// Serializes and broadcasts `frame` from `sender` to all other NICs.
  void transmit(const Nic& sender, const Frame& frame);

  /// Seconds of medium busy time accumulated in [since, now]; used with the
  /// wall-clock window to compute utilization for Fig. 1.
  double busy_seconds() const { return medium_.busy_seconds(); }

  const Counters& counters() const { return medium_.counters(); }

  /// Delivery-ring capacity, the storage every in-flight frame occupies;
  /// stable once traffic peaks (asserted by the zero-allocation
  /// instrumented test, see docs/PERFORMANCE.md).
  std::size_t flight_slots() const { return ring_.capacity(); }

  /// Shard-boundary capture (sharded fleet only, see docs/SHARDING.md): when
  /// set, transmit() hands every offered frame to the hook INSTEAD of driving
  /// the medium. The hook fires before the failed check on purpose — the
  /// relay-hub oracle owns the shared medium's failure state, contention,
  /// loss draws, and delivery, and replays offers through its own Medium
  /// (and its drop accounting) centrally at each window merge. Registration-time
  /// plumbing; never set on single-threaded topologies.
  using BoundaryHook = std::function<void(const Nic& sender, const Frame&)>;
  void set_boundary_hook(BoundaryHook hook) {
    boundary_hook_ = std::move(hook);
  }

 private:
  /// One pending delivery in the ring (see the header comment).
  struct PendingDelivery {
    Frame frame;
    Nic* target = nullptr;  // a switch egress port's NIC; null: hub fan-in
    MacAddr sender{};       // hub fan-in skips the sender's own NIC
    std::int64_t arrival_ns = 0;
    std::uint64_t rank = 0;  // claimed at transmit; the ring pops under it
    bool boundary = false;   // transmitted under the boundary scope
  };
  static bool before(const PendingDelivery& a, const PendingDelivery& b) {
    return a.arrival_ns < b.arrival_ns ||
           (a.arrival_ns == b.arrival_ns && a.rank < b.rank);
  }

  /// Hub fan-in at arrival time: MAC-index unicast or broadcast fan-out.
  void deliver_hub_frame(const Frame& frame, MacAddr sender);
  /// Claims the frame's rank, adds it to the ring in (arrival, rank) order
  /// under the current boundary tag, and moves the armed head if it is the
  /// new head.
  void ring_push(const Frame& frame, Nic* target, MacAddr sender,
                 util::SimTime arrival);
  void ring_arm() {
    const PendingDelivery& head = ring_[ring_head_];
    ring_source_.arm(head.arrival_ns, head.rank, head.boundary);
  }
  /// Delivers the head entry, whose armed head this firing consumed, and
  /// arms the next one.
  void ring_fire();

  void transmit_hub(const Nic& sender, const Frame& frame);
  void transmit_switch(const Nic& sender, const Frame& frame);
  /// Egress serialization out of one NIC's port, then into the ring.
  void switch_deliver(Nic& receiver, const Frame& frame, util::SimTime ingress_done);

  sim::Simulator& sim_;
  sim::Entity entity_;  // the delivery ring's ranks are claimed under it
  NetworkId id_;
  /// Set once two attached NICs share a MAC: unicast delivery then falls
  /// back to the full fan-out walk, since a hub would deliver to both.
  bool mac_collision_ = false;
  Medium medium_;
  std::vector<Nic*> attached_;
  /// Unicast delivery index, keyed by MAC value (unused on a MAC collision).
  util::FlatMap<std::uint64_t, Nic*> by_mac_;
  /// Per-port busy-until times (switch mode), keyed by NIC MAC value.
  util::FlatMap<std::uint64_t, util::SimTime> ingress_busy_;
  util::FlatMap<std::uint64_t, util::SimTime> egress_busy_;
  /// Delivery ring, sorted on (arrival, rank); entries before ring_head_
  /// are already delivered. Failure drops the live part eagerly.
  std::vector<PendingDelivery> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_tagged_ = 0;  // live entries with the boundary tag
  BoundaryHook boundary_hook_;
  /// Armed at the ring's head whenever the live part is nonempty; last, so
  /// it unregisters before the ring it reads is destroyed.
  sim::SortedSource ring_source_;
};

// Defined here so that Backplane's transmit path inlines the medium's rules.
inline util::Duration Backplane::Medium::serialization_time(
    std::uint32_t wire_bytes) const {
  const double bytes =
      static_cast<double>(wire_bytes + config_.per_frame_overhead_bytes);
  return util::Duration::from_seconds(bytes * 8.0 / config_.bits_per_second);
}

inline std::optional<util::SimTime> Backplane::Medium::offer(
    util::SimTime now, std::uint32_t wire_bytes, util::SimTime& busy_until) {
  if (failed_) {
    ++counters_.dropped_failed;
    return std::nullopt;
  }
  const util::SimTime start = std::max(now, busy_until);
  if (start - now > config_.max_backlog) {
    ++counters_.dropped_backlog;
    return std::nullopt;
  }
  const util::Duration ser = serialization_time(wire_bytes);
  busy_until = start + ser;
  busy_seconds_ += ser.to_seconds();
  ++counters_.frames;
  counters_.bytes += wire_bytes + config_.per_frame_overhead_bytes;
  // Random corruption: a bad FCS is bad for every receiver on a hub, so the
  // whole broadcast is lost at once. The medium time was still consumed.
  if (config_.frame_loss_rate > 0.0 &&
      rng_.next_bernoulli(config_.frame_loss_rate)) {
    ++counters_.lost_random;
    return std::nullopt;
  }
  return busy_until + config_.propagation_delay;
}

}  // namespace drs::net
