#include "common/histogram.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

namespace rtds {
namespace {

TEST(HistogramTest, ValidatesConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), InvalidArgument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), InvalidArgument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), InvalidArgument);
}

TEST(HistogramTest, BucketBoundaries) {
  Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(4), 8.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(4), 10.0);
}

TEST(HistogramTest, CountsIntoCorrectBuckets) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.0);   // bucket 0 (inclusive lower edge)
  h.add(1.99);  // bucket 0
  h.add(2.0);   // bucket 1
  h.add(9.99);  // bucket 4
  h.add(-1.0);  // underflow
  h.add(10.0);  // overflow (hi is exclusive)
  h.add(42.0);  // overflow
  EXPECT_EQ(h.count(), 7u);
  EXPECT_EQ(h.buckets()[0], 2u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[4], 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
}

TEST(HistogramTest, QuantileEmptyThrows) {
  Histogram h(0.0, 1.0, 2);
  EXPECT_THROW(static_cast<void>(h.quantile(0.5)), InvalidArgument);
  h.add(0.5);
  EXPECT_THROW(static_cast<void>(h.quantile(1.5)), InvalidArgument);
}

TEST(HistogramTest, QuantileApproximatesUniform) {
  Histogram h(0.0, 1.0, 100);
  Xoshiro256ss rng(3);
  for (int i = 0; i < 100000; ++i) h.add(rng.uniform_double());
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.02);
  EXPECT_NEAR(h.quantile(0.1), 0.1, 0.02);
}

TEST(HistogramTest, QuantileExtremesWithOutliers) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(-5.0);
  for (int i = 0; i < 10; ++i) h.add(50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);   // underflow clamps to lo
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);  // overflow clamps to hi
}

TEST(HistogramTest, QuantileZeroWithoutUnderflowIsSmallestBucketEdge) {
  // q = 0 used to report lo even when no sample was anywhere near it; with
  // no underflow mass the minimum lives in the first NON-EMPTY bucket.
  Histogram h(0.0, 10.0, 10);
  h.add(7.3);
  h.add(7.9);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 8.0);  // symmetric: no overflow mass
  // Once underflow mass exists, q = 0 genuinely is below range.
  h.add(-1.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
}

TEST(HistogramTest, QuantileSkipsEmptyInteriorBuckets) {
  // Mass in buckets 0 and 9 with an empty run between: interior quantiles
  // must interpolate within occupied buckets, never land in the gap.
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 50; ++i) h.add(0.5);
  for (int i = 0; i < 50; ++i) h.add(9.5);
  EXPECT_LE(h.quantile(0.4), 1.0);
  EXPECT_GE(h.quantile(0.6), 9.0);
}

TEST(HistogramTest, QuantileAllMassOutOfRange) {
  Histogram h(0.0, 10.0, 4);
  for (int i = 0; i < 8; ++i) h.add(99.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 10.0);  // nothing recorded below hi
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 10.0);
  Histogram g(0.0, 10.0, 4);
  for (int i = 0; i < 8; ++i) g.add(-3.0);
  EXPECT_DOUBLE_EQ(g.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(g.quantile(1.0), 0.0);
}

}  // namespace
}  // namespace rtds
