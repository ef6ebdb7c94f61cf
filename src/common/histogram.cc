#include "common/histogram.h"

#include <algorithm>

namespace rtds {

Histogram::Histogram(double lo, double hi, std::size_t num_buckets)
    : lo_(lo), hi_(hi), buckets_(num_buckets, 0) {
  RTDS_REQUIRE(lo < hi, "Histogram: lo must be < hi");
  RTDS_REQUIRE(num_buckets >= 1, "Histogram: need >= 1 bucket");
  width_ = (hi - lo) / double(num_buckets);
}

void Histogram::add(double x) {
  ++count_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  const auto idx = std::min(
      buckets_.size() - 1, std::size_t((x - lo_) / width_));
  ++buckets_[idx];
}

double Histogram::quantile(double q) const {
  RTDS_REQUIRE(count_ > 0, "quantile: empty histogram");
  RTDS_REQUIRE(q >= 0.0 && q <= 1.0, "quantile: q outside [0,1]");
  const double rank = q * double(count_);
  // Ranks inside the underflow mass report lo_ (the histogram cannot see
  // below its range). Rank 0 with no underflow must NOT: the smallest
  // recorded value lives in the first non-empty bucket, whose lower edge
  // the loop below returns (frac == 0), not lo_.
  double seen = double(underflow_);
  if (underflow_ > 0 && rank <= seen) return lo_;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;  // empty runs carry no mass
    const double next = seen + double(buckets_[i]);
    if (rank <= next) {
      const double frac =
          rank > seen ? (rank - seen) / double(buckets_[i]) : 0.0;
      return bucket_lo(i) + frac * width_;
    }
    seen = next;
  }
  // Remaining mass is overflow: everything >= hi_ is reported as hi_.
  return hi_;
}

}  // namespace rtds
