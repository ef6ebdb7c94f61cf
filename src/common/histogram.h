// Fixed-bucket histogram for latency-style distributions.
//
// Used by the analysis module for lateness/tardiness distributions; linear
// buckets over [lo, hi) with underflow/overflow counters, plus approximate
// quantiles by bucket interpolation.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.h"

namespace rtds {

class Histogram {
 public:
  /// `num_buckets` linear buckets spanning [lo, hi).
  Histogram(double lo, double hi, std::size_t num_buckets);

  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const {
    return buckets_;
  }
  [[nodiscard]] double bucket_lo(std::size_t i) const {
    return lo_ + width_ * double(i);
  }
  [[nodiscard]] double bucket_hi(std::size_t i) const {
    return lo_ + width_ * double(i + 1);
  }

  /// Approximate q-quantile (q in [0,1]) by linear interpolation within the
  /// bucket containing the rank. Ranks inside the underflow mass map to lo,
  /// ranks inside the overflow mass to hi; with no underflow, q = 0 is the
  /// lower edge of the first non-empty bucket (and symmetrically, with no
  /// overflow q = 1 is the upper edge of the last non-empty bucket), so
  /// empty leading/trailing bucket runs never distort the extremes.
  /// Requires a non-empty histogram.
  [[nodiscard]] double quantile(double q) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t underflow_{0};
  std::uint64_t overflow_{0};
  std::uint64_t count_{0};
};

}  // namespace rtds
