// Streaming statistics, histograms and binomial confidence intervals used by
// the Monte-Carlo estimators and the benchmark harnesses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace drs::util {

/// Welford's online algorithm: numerically stable mean/variance plus extrema.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance; 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width histogram over [lo, hi); out-of-range samples land in
/// saturating under/overflow buckets.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x);
  std::size_t bucket_count() const { return counts_.size(); }
  std::uint64_t bucket(std::size_t i) const { return counts_.at(i); }
  std::uint64_t underflow() const { return underflow_; }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t total() const { return total_; }
  double bucket_lo(std::size_t i) const;
  double bucket_hi(std::size_t i) const;
  /// Linear-interpolated quantile estimate, q in [0, 1].
  double quantile(double q) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

struct Interval {
  double lo = 0.0;
  double hi = 0.0;
  bool contains(double x) const { return lo <= x && x <= hi; }
  double width() const { return hi - lo; }
};

/// Wilson score interval for a binomial proportion with `successes` out of
/// `trials` at confidence z (z = 1.96 ~ 95 %, 2.576 ~ 99 %). Well-behaved for
/// proportions near 0 or 1, unlike the normal approximation.
Interval wilson_interval(std::uint64_t successes, std::uint64_t trials, double z = 1.96);

}  // namespace drs::util
