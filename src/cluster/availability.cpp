#include "cluster/availability.hpp"

#include <algorithm>

namespace drs::cluster {

void AvailabilityTracker::add_sample(util::SimTime at, bool ok) {
  ++samples_;
  if (ok) {
    if (in_outage_) {
      outages_.push_back(OutageInterval{outage_begin_, at});
      in_outage_ = false;
    }
    return;
  }
  ++failures_;
  if (!in_outage_) {
    in_outage_ = true;
    outage_begin_ = at;
  }
}

util::Duration AvailabilityTracker::longest_outage() const {
  util::Duration longest = util::Duration::zero();
  for (const auto& outage : outages_) longest = std::max(longest, outage.length());
  return longest;
}

util::Duration AvailabilityTracker::total_outage() const {
  util::Duration total = util::Duration::zero();
  for (const auto& outage : outages_) total += outage.length();
  return total;
}

}  // namespace drs::cluster
