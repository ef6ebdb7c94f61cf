#include "sim/simulator.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace rtds::sim {
namespace {

TEST(SimulatorTest, StartsAtZero) {
  const Simulator clock;
  EXPECT_EQ(clock.now(), SimTime::zero());
}

TEST(SimulatorTest, AdvanceToMovesTheClockForward) {
  Simulator clock;
  clock.advance_to(SimTime::zero() + msec(3));
  EXPECT_EQ(clock.now(), SimTime::zero() + msec(3));
  clock.advance_to(SimTime::zero() + msec(10));
  EXPECT_EQ(clock.now(), SimTime::zero() + msec(10));
}

TEST(SimulatorTest, AdvanceToNowIsANoOp) {
  Simulator clock;
  clock.advance_to(SimTime::zero());
  EXPECT_EQ(clock.now(), SimTime::zero());
  clock.advance_to(SimTime::zero() + usec(7));
  clock.advance_to(clock.now());
  EXPECT_EQ(clock.now(), SimTime::zero() + usec(7));
}

TEST(SimulatorTest, MovingIntoThePastThrows) {
  Simulator clock;
  clock.advance_to(SimTime::zero() + msec(5));
  EXPECT_THROW(clock.advance_to(SimTime::zero() + msec(4)), InvalidArgument);
  EXPECT_EQ(clock.now(), SimTime::zero() + msec(5));  // left where it was
}

}  // namespace
}  // namespace rtds::sim
