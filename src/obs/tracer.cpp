#include "obs/tracer.hpp"

namespace drs::obs {

std::atomic<std::uint64_t> Tracer::rings_allocated_{0};

void Tracer::emit(const TraceEvent& event) {
  if (ring_.capacity() == 0) {
    ring_.reserve(capacity_);
    rings_allocated_.fetch_add(1, std::memory_order_relaxed);
  }
  ++emitted_;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    return;
  }
  // Full: overwrite the oldest slot. next_ is both the write cursor and the
  // chronological start of the ring.
  ring_[next_] = event;
  next_ = (next_ + 1) % capacity_;
  wrapped_ = true;
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for_each([&out](const TraceEvent& event) { out.push_back(event); });
  return out;
}

void Tracer::clear() {
  ring_.clear();
  next_ = 0;
  wrapped_ = false;
}

}  // namespace drs::obs
