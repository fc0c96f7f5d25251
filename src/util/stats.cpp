#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace drs::util {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi), counts_(buckets, 0) {
  assert(hi > lo && buckets > 0);
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const double frac = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::size_t>(frac * static_cast<double>(counts_.size()));
  idx = std::min(idx, counts_.size() - 1);
  ++counts_[idx];
}

double Histogram::bucket_lo(std::size_t i) const {
  return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
}

double Histogram::bucket_hi(std::size_t i) const { return bucket_lo(i + 1); }

double Histogram::quantile(double q) const {
  if (total_ == 0) return lo_;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<double>(total_) * q;
  double cum = static_cast<double>(underflow_);
  if (cum >= target) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto c = static_cast<double>(counts_[i]);
    if (cum + c >= target && c > 0) {
      const double within = (target - cum) / c;
      return bucket_lo(i) + within * (bucket_hi(i) - bucket_lo(i));
    }
    cum += c;
  }
  return hi_;
}

Interval wilson_interval(std::uint64_t successes, std::uint64_t trials, double z) {
  if (trials == 0) return {0.0, 1.0};
  const auto n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

}  // namespace drs::util
