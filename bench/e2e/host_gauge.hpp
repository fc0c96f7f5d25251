// HostGauge: a fixed slice of work that reads how fast the host runs right
// now, so drs_bench can report unit times at one reference host speed.
//
// It is its own library in bench/e2e, linked against nothing from src/, so
// no change to the repository's libraries or their build flags changes the
// gauge's work.
#pragma once

#include <cstdint>
#include <vector>

namespace drs_bench {

/// CPU time of the calling thread in ns. On a guest with paravirtual steal
/// accounting it leaves out time the host ran another tenant on this vCPU.
std::int64_t thread_cpu_ns();

/// 4,096 pop/reschedule/push rounds on a 4,096-entry binary min-heap of
/// pseudo-random timestamps, the shape of a discrete-event queue. Every
/// slice does identical work from a fixed seed, so its thread CPU time
/// moves only with the host: with contention for the core, its caches and
/// memory, and its clock.
class HostGauge {
 public:
  /// A slice's CPU time on the reference host (a quiet 4-vCPU Xeon VM takes
  /// about 383 us). unit_ms_p50 and setup_s are scaled to this speed.
  static constexpr double kReferenceNs = 400'000.0;

  HostGauge();

  /// Runs one slice; returns its thread CPU time in ns.
  double slice_ns();

 private:
  std::vector<std::uint64_t> heap_;
};

}  // namespace drs_bench
