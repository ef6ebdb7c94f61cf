#include "common/histogram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace rtds {
namespace {

constexpr std::uint64_t kOverflowStart = std::uint64_t{1}
                                         << Histogram::kMaxBits;

/// The estimate of the r-th smallest of n samples (r counted from 1).
double at_rank(const Histogram& h, std::uint64_t r) {
  return h.quantile((double(r) - 0.5) / double(h.count()));
}

TEST(HistogramTest, CountsIntoCorrectBuckets) {
  // One sample per slot reads back as the slot's midpoint: the value itself
  // below 2048, half a slot width above the slot's low value beyond that.
  // From 2^42 on, values are overflow.
  Histogram h;
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{2047},
        std::uint64_t{2048}, std::uint64_t{3000}, std::uint64_t{1} << 20,
        kOverflowStart - 1, kOverflowStart, ~std::uint64_t{0}}) {
    h.add(v);
  }
  EXPECT_EQ(h.count(), 9u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_DOUBLE_EQ(at_rank(h, 1), 0.0);
  EXPECT_DOUBLE_EQ(at_rank(h, 2), 1.0);
  EXPECT_DOUBLE_EQ(at_rank(h, 3), 2047.0);
  EXPECT_DOUBLE_EQ(at_rank(h, 4), 2048.5);  // slot [2048, 2050)
  EXPECT_DOUBLE_EQ(at_rank(h, 5), 3000.5);  // slot [3000, 3002)
  // Slot [2^20, 2^20 + 2^10).
  EXPECT_DOUBLE_EQ(at_rank(h, 6), double(1 << 20) - 0.5 + 512.0);
  // The last slot, [2^42 - 2^31, 2^42).
  EXPECT_DOUBLE_EQ(at_rank(h, 7), std::ldexp(1.0, 42) - std::ldexp(1.0, 31) -
                                      0.5 + std::ldexp(1.0, 30));
  EXPECT_DOUBLE_EQ(at_rank(h, 8), std::ldexp(1.0, 42));
}

TEST(HistogramTest, QuantileEmptyThrows) {
  Histogram h;
  EXPECT_THROW(static_cast<void>(h.quantile(0.5)), InvalidArgument);
  h.add(5);
  EXPECT_THROW(static_cast<void>(h.quantile(1.5)), InvalidArgument);
  EXPECT_THROW(static_cast<void>(h.quantile(-0.1)), InvalidArgument);
}

TEST(HistogramTest, QuantileApproximatesUniform) {
  Histogram h;
  Xoshiro256ss rng(3);
  for (int i = 0; i < 100000; ++i) h.add(rng.uniform_int(0, 999'999));
  EXPECT_NEAR(h.quantile(0.5), 500'000.0, 5'000.0);
  EXPECT_NEAR(h.quantile(0.9), 900'000.0, 5'000.0);
  EXPECT_NEAR(h.quantile(0.1), 100'000.0, 5'000.0);
}

TEST(HistogramTest, QuantileExtremesWithOutliers) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.add(7);
  for (int i = 0; i < 10; ++i) h.add(std::uint64_t{1} << 45);
  EXPECT_NEAR(h.quantile(0.0), 7.0, 0.5);  // the smallest sample's run
  // Overflow reads as its lower edge: all the histogram knows of it.
  EXPECT_DOUBLE_EQ(h.quantile(1.0), std::ldexp(1.0, 42));
}

TEST(HistogramTest, QuantileZeroWithoutUnderflowIsSmallestBucketEdge) {
  // q = 0 is the smallest sample and q = 1 the largest, wherever they sit:
  // empty slots below and above them carry no mass.
  Histogram h;
  h.add(7300);
  h.add(7900);
  EXPECT_NEAR(h.quantile(0.0), 7300.0, 7300.0 * Histogram::relative_error());
  EXPECT_NEAR(h.quantile(1.0), 7900.0, 7900.0 * Histogram::relative_error());
  h.add(0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
}

TEST(HistogramTest, QuantileSkipsEmptyInteriorBuckets) {
  // Mass at 5 and 9000 with empty slots between: interior quantiles land
  // in an occupied slot, never in the gap.
  Histogram h;
  for (int i = 0; i < 50; ++i) h.add(5);
  for (int i = 0; i < 50; ++i) h.add(9000);
  EXPECT_LE(h.quantile(0.4), 5.5);
  EXPECT_GE(h.quantile(0.6), 9000.0 * (1.0 - Histogram::relative_error()));
}

TEST(HistogramTest, QuantileAllMassOutOfRange) {
  Histogram h;
  for (int i = 0; i < 8; ++i) h.add(std::uint64_t{1} << 43);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.overflow(), 8u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), std::ldexp(1.0, 42));
  EXPECT_DOUBLE_EQ(h.quantile(0.5), std::ldexp(1.0, 42));
  EXPECT_DOUBLE_EQ(h.quantile(1.0), std::ldexp(1.0, 42));
}

TEST(HistogramTest, ValuesBelow2048AreExact) {
  Histogram h;
  for (std::uint64_t v = 0; v < 2048; ++v) h.add(v);
  for (std::uint64_t r = 1; r <= 2048; ++r) {
    ASSERT_DOUBLE_EQ(at_rank(h, r), double(r - 1)) << "rank " << r;
  }
}

/// Every checked quantile lies within max(0.5, 2^-10 * x) of the exact
/// nearest-rank sample x.
void expect_within_bound(std::vector<std::uint64_t> samples) {
  Histogram h;
  for (const std::uint64_t v : samples) h.add(v);
  std::sort(samples.begin(), samples.end());
  const double n = double(samples.size());
  for (const double q : {0.001, 0.1, 0.5, 0.9, 0.99, 0.999}) {
    const auto rank = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(q * n)));
    const double exact = double(samples[rank - 1]);
    EXPECT_NEAR(h.quantile(q), exact,
                std::max(0.5, exact * Histogram::relative_error()))
        << "q " << q;
  }
}

TEST(HistogramTest, QuantileWithinRelativeErrorBound) {
  Xoshiro256ss rng(17);
  // Log-uniform over [1, 2^36): every slot width up to 2^25.
  std::vector<std::uint64_t> log_uniform(100'000);
  for (std::uint64_t& v : log_uniform) {
    v = static_cast<std::uint64_t>(std::exp2(rng.uniform_double() * 36.0));
  }
  expect_within_bound(log_uniform);

  // Heavy tail: Pareto with shape 1.1 above 100, capped below overflow.
  std::vector<std::uint64_t> pareto(100'000);
  for (std::uint64_t& v : pareto) {
    const double u = 1.0 - rng.uniform_double();  // (0, 1]
    v = static_cast<std::uint64_t>(
        std::min(100.0 / std::pow(u, 1.0 / 1.1), std::ldexp(1.0, 41)));
  }
  expect_within_bound(pareto);
}

}  // namespace
}  // namespace rtds
