// Availability accounting: turns a timeline of success/failure samples into
// outage intervals.
#pragma once

#include <cstdint>
#include <vector>

#include "util/time.hpp"

namespace drs::cluster {

struct OutageInterval {
  util::SimTime begin;
  util::SimTime end;
  util::Duration length() const { return end - begin; }
};

class AvailabilityTracker {
 public:
  /// Samples must arrive in non-decreasing time order.
  void add_sample(util::SimTime at, bool ok);

  std::uint64_t samples() const { return samples_; }
  std::uint64_t failures() const { return failures_; }

  /// Closed outage intervals (first failed sample to first subsequent
  /// success). An outage still open at the end of the run is reported by
  /// `open_outage_since`.
  const std::vector<OutageInterval>& outages() const { return outages_; }
  bool outage_open() const { return in_outage_; }
  util::Duration longest_outage() const;
  util::Duration total_outage() const;

 private:
  std::uint64_t samples_ = 0;
  std::uint64_t failures_ = 0;
  bool in_outage_ = false;
  util::SimTime outage_begin_;
  std::vector<OutageInterval> outages_;
};

}  // namespace drs::cluster
