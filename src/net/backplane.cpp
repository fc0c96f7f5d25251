#include "net/backplane.hpp"

#include <algorithm>

#include "util/sorted_ring.hpp"

namespace drs::net {

bool Backplane::Medium::set_failed(bool failed, util::SimTime now,
                                   std::uint64_t in_flight) {
  if (failed_ == failed) return false;
  failed_ = failed;
  busy_until_ = now;
  counters_.lost_in_flight += in_flight;
  return true;
}

util::Duration Backplane::Medium::draw_jitter() {
  return util::Duration::nanos(static_cast<std::int64_t>(
      rng_.next_below(static_cast<std::uint64_t>(config_.jitter.ns()) + 1)));
}

Backplane::Backplane(sim::Simulator& sim, NetworkId id, Config config)
    : sim_(sim),
      entity_(sim.entity()),
      id_(id),
      medium_(config, id),
      ring_source_(sim, [this] { ring_fire(); }) {}

void Backplane::attach(Nic& nic) {
  attached_.push_back(&nic);
  if (!by_mac_.insert(nic.mac().value(), &nic)) mac_collision_ = true;
  nic.attach(*this);
}

void Backplane::set_failed(bool failed) {
  // Every live ring entry is lost at once, whatever its arrival time.
  if (!medium_.set_failed(failed, sim_.now(), ring_.size() - ring_head_)) {
    return;
  }
  // Either direction drops scheduled deliveries: frames in flight when the
  // medium dies are lost, and a restored medium starts idle.
  ingress_busy_.clear();
  egress_busy_.clear();
  ring_.clear();
  ring_head_ = 0;
  ring_tagged_ = 0;
  ring_source_.set_tagged(false);
  ring_source_.disarm();
}

void Backplane::transmit(const Nic& sender, const Frame& frame) {
  if (boundary_hook_) {
    boundary_hook_(sender, frame);
    return;
  }
  if (config().kind == MediumKind::kSwitch) {
    transmit_switch(sender, frame);
  } else {
    transmit_hub(sender, frame);
  }
}

void Backplane::transmit_hub(const Nic& sender, const Frame& frame) {
  std::optional<util::SimTime> arrival =
      medium_.offer(sim_.now(), frame.wire_bytes());
  if (!arrival) return;
  if (config().jitter > util::Duration::zero()) {
    *arrival += medium_.draw_jitter();
  }
  ring_push(frame, nullptr, sender.mac(), *arrival);
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

void Backplane::ring_push(const Frame& frame, Nic* target, MacAddr sender,
                          util::SimTime arrival) {
  const sim::EntityScope scope(sim_, entity_);
  if (ring_head_ == ring_.size() && !ring_.empty()) {
    // Fully consumed: reclaim the ring in one go before adding.
    ring_.clear();
    ring_head_ = 0;
  }
  const bool boundary = sim_.in_boundary_scope();
  const std::size_t at = util::insert_sorted(
      ring_, ring_head_,
      PendingDelivery{frame, target, sender, arrival.ns(),
                      sim_.claim_event_rank(), boundary},
      [](const PendingDelivery& a, const PendingDelivery& b) {
        return before(a, b);
      });
  if (boundary && ring_tagged_++ == 0) ring_source_.set_tagged(true);
  if (at == ring_head_) ring_arm();
}

void Backplane::ring_fire() {
  // Move out (which drops the ring's payload reference) and arm the next
  // head before delivering: delivery can re-enter transmit(), adding to the
  // ring, and ring_push must see the source armed at the live head.
  PendingDelivery entry = std::move(ring_[ring_head_]);
  ++ring_head_;
  if (entry.boundary && --ring_tagged_ == 0) ring_source_.set_tagged(false);
  if (ring_head_ < ring_.size()) ring_arm();
  if (entry.target != nullptr) {
    entry.target->deliver(entry.frame);
  } else {
    deliver_hub_frame(entry.frame, entry.sender);
  }
  // Bound the consumed prefix under sustained backlog, amortized O(1)/frame.
  if (ring_head_ >= 4096 && ring_head_ * 2 >= ring_.size()) {
    ring_.erase(ring_.begin(),
                ring_.begin() + static_cast<std::ptrdiff_t>(ring_head_));
    ring_head_ = 0;
  }
}

void Backplane::transmit_switch(const Nic& sender, const Frame& frame) {
  // Ingress: the frame serializes into the switch on the sender's port (busy
  // seconds add up every port's ingress occupancy).
  const std::optional<util::SimTime> arrival = medium_.offer(
      sim_.now(), frame.wire_bytes(), ingress_busy_[sender.mac().value()]);
  if (!arrival) return;
  const util::SimTime ingress_done = *arrival;
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
  rx_busy = egress_start + medium_.serialization_time(frame.wire_bytes());
  util::SimTime arrival = rx_busy + config().propagation_delay;
  if (config().jitter > util::Duration::zero()) arrival += medium_.draw_jitter();
  ring_push(frame, &receiver, MacAddr{}, arrival);
}

}  // namespace drs::net
