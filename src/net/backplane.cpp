#include "net/backplane.hpp"

#include <algorithm>

namespace drs::net {

Backplane::Backplane(sim::Simulator& sim, NetworkId id, Config config)
    : sim_(sim), id_(id), config_(config), rng_(config.seed, id) {}

Backplane::Backplane(sim::Simulator& sim, NetworkId id)
    : Backplane(sim, id, Config{}) {}

void Backplane::attach(Nic& nic) {
  attached_.push_back(&nic);
  if (!by_mac_.insert(nic.mac().value(), &nic)) mac_collision_ = true;
  nic.attach(*this);
}

std::uint32_t Backplane::acquire_flight(const Frame& frame, MacAddr sender) {
  if (!flight_free_.empty()) {
    const std::uint32_t slot = flight_free_.back();
    flight_free_.pop_back();
    flight_[slot] = FlightFrame{frame, sender};
    return slot;
  }
  const auto slot = static_cast<std::uint32_t>(flight_.size());
  // drs-lint: hotpath-purity-ok(amortized: flight pool grows to peak in-flight count once, then recycles via the free list)
  flight_.push_back(FlightFrame{frame, sender});
  return slot;
}

Backplane::FlightFrame Backplane::take_flight(std::uint32_t slot) {
  // Move out before any delivery work: delivering can re-enter transmit(),
  // which may grow the pool and invalidate references into it.
  FlightFrame out = std::move(flight_[slot]);
  flight_[slot] = FlightFrame{};  // drop the payload reference immediately
  // drs-lint: hotpath-purity-ok(amortized: free list never outgrows the flight pool it indexes)
  flight_free_.push_back(slot);
  return out;
}

void Backplane::set_failed(bool failed) {
  if (failed_ == failed) return;
  failed_ = failed;
  // Either direction invalidates scheduled deliveries: frames in flight when
  // the medium dies are lost, and a restored medium starts idle.
  ++epoch_;
  busy_until_ = sim_.now();
  ingress_busy_.clear();
  egress_busy_.clear();
  // The delivery stream drops its live suffix now (per-frame events counted
  // each loss lazily at their own pops); totals agree once the clock passes
  // the last scheduled arrival, and the ring stays monotone across restores.
  counters_.lost_in_flight +=
      static_cast<std::uint64_t>(stream_.size() - stream_head_);
  stream_.clear();
  stream_head_ = 0;
  stream_event_.cancel();
}

util::Duration Backplane::serialization_time(const Frame& frame) const {
  const double bytes = static_cast<double>(frame.wire_bytes() + config_.per_frame_overhead_bytes);
  return util::Duration::from_seconds(bytes * 8.0 / config_.bits_per_second);
}

void Backplane::transmit(const Nic& sender, const Frame& frame) {
  if (boundary_hook_) {
    boundary_hook_(sender, frame);
    return;
  }
  if (failed_) {
    ++counters_.dropped_failed;
    return;
  }
  if (config_.kind == MediumKind::kSwitch) {
    transmit_switch(sender, frame);
  } else {
    transmit_hub(sender, frame);
  }
}

void Backplane::transmit_hub(const Nic& sender, const Frame& frame) {
  const util::SimTime now = sim_.now();
  const util::SimTime start = std::max(now, busy_until_);
  if (start - now > config_.max_backlog) {
    ++counters_.dropped_backlog;
    return;
  }
  const util::Duration ser = serialization_time(frame);
  busy_until_ = start + ser;
  busy_seconds_ += ser.to_seconds();
  ++counters_.frames;
  counters_.bytes += frame.wire_bytes() + config_.per_frame_overhead_bytes;

  // Random corruption: a bad FCS is bad for every receiver on a hub, so the
  // whole broadcast is lost at once. The medium time was still consumed.
  if (config_.frame_loss_rate > 0.0 &&
      rng_.next_bernoulli(config_.frame_loss_rate)) {
    ++counters_.lost_random;
    return;
  }

  const util::SimTime arrival = busy_until_ + config_.propagation_delay;
  if (config_.jitter > util::Duration::zero()) {
    // Jittered arrivals are not monotone, so each frame gets its own wheel
    // event; the frame parks in the flight pool and the callback carries
    // only the slot index, so scheduling never allocates.
    const util::SimTime jittered =
        arrival + util::Duration::nanos(static_cast<std::int64_t>(rng_.next_below(
                      static_cast<std::uint64_t>(config_.jitter.ns()) + 1)));
    const std::uint64_t epoch = epoch_;
    const std::uint32_t slot = acquire_flight(frame, sender.mac());
    sim_.schedule_at(jittered, [this, slot, epoch] {
      const FlightFrame flight = take_flight(slot);
      if (epoch != epoch_ || failed_) {
        ++counters_.lost_in_flight;
        return;
      }
      deliver_hub_frame(flight.frame, flight.sender);
    });
    return;
  }
  // FIFO stream (see the header): one armed wheel event per hub, each entry
  // popping at the exact (time, rank) its per-frame event would have held.
  stream_push(frame, sender.mac(), arrival);
}

/// Hub fan-in: every other NIC hears the frame, but only the addressee's MAC
/// filter passes it, so unicast delivery resolves through the MAC index and
/// only broadcasts pay the full fan-out walk.
void Backplane::deliver_hub_frame(const Frame& frame, MacAddr sender) {
  if (frame.dst.is_broadcast() || mac_collision_) {
    for (Nic* nic : attached_) {
      if (nic->mac() != sender) nic->deliver(frame);
    }
  } else if (Nic* const* found = by_mac_.find(frame.dst.value());
             found != nullptr && (*found)->mac() != sender) {
    // An unknown destination MAC falls through: every NIC would have
    // filter-rejected it anyway.
    (*found)->deliver(frame);
  }
}

void Backplane::stream_push(const Frame& frame, MacAddr sender,
                            util::SimTime arrival) {
  const bool was_idle = stream_head_ == stream_.size();
  if (was_idle && !stream_.empty()) {
    // Fully consumed: reclaim the ring in one go before appending.
    stream_.clear();
    stream_head_ = 0;
  }
  // drs-lint: hotpath-purity-ok(amortized: delivery ring is cleared, not shrunk, when drained; capacity is reused)
  stream_.push_back(
      PendingDelivery{frame, sender, arrival.ns(), sim_.claim_event_rank()});
  if (was_idle) stream_arm();
}

void Backplane::stream_arm() {
  const PendingDelivery& head = stream_[stream_head_];
  stream_event_ = sim_.schedule_at_ranked(
      util::SimTime::from_ns(head.arrival_ns), [this] { stream_fire(); },
      head.rank);
}

void Backplane::stream_fire() {
  // Move out and re-arm before delivering: delivery can re-enter
  // transmit_hub(), growing the ring (and the push-if-idle logic must see a
  // consistent armed state).
  PendingDelivery entry = std::move(stream_[stream_head_]);
  stream_[stream_head_] = PendingDelivery{};  // drop the payload reference
  ++stream_head_;
  if (stream_head_ < stream_.size()) stream_arm();
  deliver_hub_frame(entry.frame, entry.sender);
  // Bound the consumed prefix under sustained backlog, amortized O(1)/frame.
  if (stream_head_ >= 4096 && stream_head_ * 2 >= stream_.size()) {
    stream_.erase(stream_.begin(),
                  stream_.begin() + static_cast<std::ptrdiff_t>(stream_head_));
    stream_head_ = 0;
  }
}

void Backplane::transmit_switch(const Nic& sender, const Frame& frame) {
  const util::SimTime now = sim_.now();
  // Ingress: the frame serializes into the switch on the sender's port.
  util::SimTime& tx_busy = ingress_busy_[sender.mac().value()];
  const util::SimTime start = std::max(now, tx_busy);
  if (start - now > config_.max_backlog) {
    ++counters_.dropped_backlog;
    return;
  }
  const util::Duration ser = serialization_time(frame);
  tx_busy = start + ser;
  busy_seconds_ += ser.to_seconds();  // aggregate ingress occupancy
  ++counters_.frames;
  counters_.bytes += frame.wire_bytes() + config_.per_frame_overhead_bytes;

  if (config_.frame_loss_rate > 0.0 &&
      rng_.next_bernoulli(config_.frame_loss_rate)) {
    ++counters_.lost_random;
    return;
  }

  const util::SimTime ingress_done = tx_busy + config_.propagation_delay;
  if (frame.dst.is_broadcast()) {
    for (Nic* nic : attached_) {
      if (nic->mac() != sender.mac()) switch_deliver(*nic, frame, ingress_done);
    }
    return;
  }
  if (!mac_collision_) {
    if (Nic* const* found = by_mac_.find(frame.dst.value())) {
      switch_deliver(**found, frame, ingress_done);
      return;
    }
  } else {
    for (Nic* nic : attached_) {
      if (nic->mac() == frame.dst) {
        switch_deliver(*nic, frame, ingress_done);
        return;
      }
    }
  }
  // Unknown destination MAC: a real switch floods; in this closed cluster it
  // only happens for stale config, so flood like a hub would.
  for (Nic* nic : attached_) {
    if (nic->mac() != sender.mac()) switch_deliver(*nic, frame, ingress_done);
  }
}

void Backplane::switch_deliver(Nic& receiver, const Frame& frame,
                               util::SimTime ingress_done) {
  // Egress: store-and-forward out the destination's port, subject to that
  // port's own queue.
  util::SimTime& rx_busy = egress_busy_[receiver.mac().value()];
  const util::SimTime egress_start = std::max(ingress_done, rx_busy);
  const util::Duration ser = serialization_time(frame);
  rx_busy = egress_start + ser;
  util::SimTime arrival = rx_busy + config_.propagation_delay;
  if (config_.jitter > util::Duration::zero()) {
    arrival += util::Duration::nanos(static_cast<std::int64_t>(
        rng_.next_below(static_cast<std::uint64_t>(config_.jitter.ns()) + 1)));
  }
  const std::uint64_t epoch = epoch_;
  Nic* target = &receiver;
  const std::uint32_t slot = acquire_flight(frame, MacAddr{});
  sim_.schedule_at(arrival, [this, slot, epoch, target] {
    const FlightFrame flight = take_flight(slot);
    if (epoch != epoch_ || failed_) {
      ++counters_.lost_in_flight;
      return;
    }
    target->deliver(flight.frame);
  });
}

}  // namespace drs::net
