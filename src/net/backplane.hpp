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
// Delivery stream: hub FIFO serialization means arrivals are scheduled in
// non-decreasing time order, so (when jitter is off) the hub keeps one
// insertion-ordered ring of pending deliveries and a single armed wheel
// event at the head's coordinates instead of one far-future wheel event per
// frame. Each entry's queue rank is claimed at transmit — exactly where the
// per-frame event used to be pushed — so every delivery still pops at the
// precise (time, rank) coordinate the per-frame event would have occupied,
// and same-instant interleaving with unrelated events is unchanged. Ranks
// are claimed under the entity the backplane was built in (sim::EntityScope),
// so a shared medium's deliveries order by its own counter, not by whichever
// sender's entity happened to transmit. Under
// saturation this keeps the event queue small (one event per hub) no matter
// how deep the backlog runs. With jitter enabled arrivals are no longer
// monotone and the per-frame path is used.
//
// kSwitch — every NIC has its own full-duplex port. A frame serializes into
// the switch on the sender's ingress port, then serializes out of the
// destination's egress port (store-and-forward); each port queues
// independently, so flows between disjoint pairs do not contend. Broadcasts
// replicate onto every egress port. Monitoring cost per port becomes O(N)
// instead of the hub's O(N^2) shared load — the bench_fig1 extension
// quantifies what that buys the paper's Fig. 1.
//
// Either way, the backplane is one of the 2 shared failure components of the
// survivability model: when failed it drops everything in flight and
// everything offered.
#pragma once

#include <cstdint>
#include <functional>
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

  Backplane(sim::Simulator& sim, NetworkId id, Config config);

  NetworkId id() const { return id_; }
  const Config& config() const { return config_; }

  void attach(Nic& nic);

  bool failed() const { return failed_; }
  /// Failing the backplane invalidates all in-flight deliveries; restoring it
  /// starts from an idle medium.
  void set_failed(bool failed);

  /// Serializes and broadcasts `frame` from `sender` to all other NICs.
  void transmit(const Nic& sender, const Frame& frame);

  /// Seconds of medium busy time accumulated in [since, now]; used with the
  /// wall-clock window to compute utilization for Fig. 1.
  double busy_seconds() const { return busy_seconds_; }

  struct Counters {
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;          // wire bytes incl. per-frame overhead
    std::uint64_t dropped_failed = 0;  // offered while the backplane was down
    std::uint64_t dropped_backlog = 0;
    std::uint64_t lost_in_flight = 0;  // in flight when the backplane failed
    std::uint64_t lost_random = 0;     // frame_loss_rate corruption
  };
  const Counters& counters() const { return counters_; }

  /// Serialization time of one frame on this medium.
  util::Duration serialization_time(const Frame& frame) const;

  /// In-flight frame-pool capacity; stable once traffic peaks (asserted by
  /// the zero-allocation instrumented test, see docs/PERFORMANCE.md).
  std::size_t flight_slots() const { return flight_.size(); }

  /// Shard-boundary capture (sharded fleet only, see docs/SHARDING.md): when
  /// set, transmit() hands every offered frame to the hook INSTEAD of driving
  /// the medium. The hook fires before the failed_ check on purpose — the
  /// relay-hub oracle owns the shared medium's failure state, contention,
  /// loss draws, and delivery, and replays the legacy transmit math (and its
  /// drop accounting) centrally at each window merge. Registration-time
  /// plumbing; never set on single-threaded topologies.
  using BoundaryHook = std::function<void(const Nic& sender, const Frame&)>;
  void set_boundary_hook(BoundaryHook hook) {
    boundary_hook_ = std::move(hook);
  }

 private:
  /// Pooled copy of a frame while it is in flight on the medium. Delivery
  /// callbacks capture the slot index (EventCallback's inline capture is 48
  /// bytes; a Frame alone is larger), and the slot is recycled at delivery.
  struct FlightFrame {
    Frame frame;
    MacAddr sender{};
  };

  std::uint32_t acquire_flight(const Frame& frame, MacAddr sender);
  FlightFrame take_flight(std::uint32_t slot);

  /// One pending hub delivery in the FIFO stream (see the header comment).
  struct PendingDelivery {
    Frame frame;
    MacAddr sender{};
    std::int64_t arrival_ns = 0;
    std::uint64_t rank = 0;  // claimed at transmit; the stream pops under it
  };

  /// Hub fan-in at arrival time: MAC-index unicast or broadcast fan-out.
  void deliver_hub_frame(const Frame& frame, MacAddr sender);
  /// Appends to the delivery ring, claiming the entry's rank, and arms the
  /// stream if it was idle.
  void stream_push(const Frame& frame, MacAddr sender, util::SimTime arrival);
  void stream_arm();
  /// Delivers the head entry and re-arms at the next one.
  void stream_fire();

  void transmit_hub(const Nic& sender, const Frame& frame);
  void transmit_switch(const Nic& sender, const Frame& frame);
  /// Schedules egress serialization + delivery to one NIC (switch path).
  void switch_deliver(Nic& receiver, const Frame& frame, util::SimTime ingress_done);

  sim::Simulator& sim_;
  sim::Entity entity_;  // the delivery stream's ranks are claimed under it
  NetworkId id_;
  Config config_;
  std::vector<Nic*> attached_;
  /// Unicast delivery index, keyed by MAC value. Disabled (falls back to the
  /// full fan-out walk) if two attached NICs ever share a MAC, since a hub
  /// would deliver to both.
  util::FlatMap<std::uint64_t, Nic*> by_mac_;
  bool mac_collision_ = false;
  bool failed_ = false;
  util::SimTime busy_until_ = util::SimTime::zero();
  /// Per-port busy-until times (switch mode), keyed by NIC MAC value.
  util::FlatMap<std::uint64_t, util::SimTime> ingress_busy_;
  util::FlatMap<std::uint64_t, util::SimTime> egress_busy_;
  std::vector<FlightFrame> flight_;
  std::vector<std::uint32_t> flight_free_;
  /// Hub FIFO delivery ring (insertion = transmit = pop order); entries
  /// before stream_head_ are already delivered. Failure drops the live
  /// suffix eagerly (the per-frame path counted each loss at its own pop).
  std::vector<PendingDelivery> stream_;
  std::size_t stream_head_ = 0;
  sim::EventHandle stream_event_;
  double busy_seconds_ = 0.0;
  /// Deliveries scheduled before the most recent failure are invalidated by
  /// comparing against this epoch counter.
  std::uint64_t epoch_ = 0;
  Counters counters_;
  util::Rng rng_;
  BoundaryHook boundary_hook_;
};

}  // namespace drs::net
