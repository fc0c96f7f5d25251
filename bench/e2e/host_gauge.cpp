#include "host_gauge.hpp"

#include <time.h>

#include <algorithm>
#include <functional>

namespace drs_bench {
namespace {

constexpr std::size_t kEntries = 4096;
constexpr int kRounds = 4096;
constexpr std::uint64_t kSpan = (std::uint64_t{1} << 20) - 1;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

HostGauge::HostGauge() { heap_.reserve(kEntries); }

double HostGauge::slice_ns() {
  // Untimed: refill the heap, which also brings its 32 KB back into cache
  // after the workload ran, so the timed part does not depend on what the
  // workload left there.
  std::uint64_t state = 0x243F6A8885A308D3ull;
  heap_.clear();
  for (std::size_t i = 0; i < kEntries; ++i) heap_.push_back(splitmix64(state) & kSpan);
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>{});

  const std::int64_t t0 = thread_cpu_ns();
  for (int i = 0; i < kRounds; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
    heap_.back() += splitmix64(state) & kSpan;  // reschedule the earliest
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  }
  return static_cast<double>(thread_cpu_ns() - t0);
}

}  // namespace drs_bench
