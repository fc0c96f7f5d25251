// Ring-buffered trace-event sink.
//
// One Tracer serves one simulation. It is deliberately *not* global state:
// the chaos runner executes many simulations concurrently, and per-simulation
// tracers are what keep traces (and therefore reports built from them)
// invariant to the worker thread count. Attach one to a sim::Simulator with
// set_tracer() before constructing the system under test; components read it
// back through their simulator and emit via the DRS_TRACE_EVENT macro
// (obs/macros.hpp).
//
// The ring storage is allocated lazily on the first emit, so a simulation
// that never traces (no tracer attached, or tracing disabled) allocates
// nothing — the property the overhead regression test pins via
// rings_allocated(). When the ring is full the oldest event is evicted;
// emitted() - size() tells how many were lost.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "obs/event.hpp"

namespace drs::obs {

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 15;

  explicit Tracer(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Records one event (oldest is evicted when the ring is full). Callers
  /// should go through DRS_TRACE_EVENT, which checks enabled() and compiles
  /// out entirely under -DDRS_OBS_DISABLED.
  void emit(const TraceEvent& event);

  std::size_t capacity() const { return capacity_; }
  /// Events currently retained (<= capacity, enforced by emit).
  std::size_t size() const { return ring_.size(); }
  /// Events ever emitted at this tracer (retained or evicted).
  std::uint64_t emitted() const { return emitted_; }
  std::uint64_t evicted() const { return emitted_ - ring_.size(); }

  /// Retained events, oldest first (emission order; within one sim event
  /// chain that is also causal order).
  std::vector<TraceEvent> events() const;

  /// Visits retained events oldest-first without copying the ring.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (wrapped_) {
      for (std::size_t i = next_; i < ring_.size(); ++i) fn(ring_[i]);
      for (std::size_t i = 0; i < next_; ++i) fn(ring_[i]);
    } else {
      for (const TraceEvent& event : ring_) fn(event);
    }
  }

  /// Drops retained events; emitted()/evicted() keep counting, the ring
  /// storage stays allocated.
  void clear();

  /// Process-wide count of ring buffers ever allocated — the overhead
  /// regression hook: a run with tracing off must not move this.
  static std::uint64_t rings_allocated() {
    return rings_allocated_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t capacity_;
  bool enabled_ = true;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;  // overwrite cursor once wrapped_
  bool wrapped_ = false;
  std::uint64_t emitted_ = 0;
  // drs-lint: shared-state-ok(process-wide diagnostics counter; monotonic atomic, no ordering dependence)
  static std::atomic<std::uint64_t> rings_allocated_;
};

}  // namespace drs::obs
