#include "tasks/task.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace rtds::tasks {
namespace {

TEST(AffinitySetTest, EmptyByDefault) {
  AffinitySet s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_FALSE(s.contains(0));
}

TEST(AffinitySetTest, AddRemoveContains) {
  AffinitySet s;
  s.add(3);
  s.add(10);
  EXPECT_TRUE(s.contains(3));
  EXPECT_TRUE(s.contains(10));
  EXPECT_FALSE(s.contains(4));
  EXPECT_EQ(s.count(), 2u);
  s.remove(3);
  EXPECT_FALSE(s.contains(3));
  EXPECT_EQ(s.count(), 1u);
  s.remove(3);  // idempotent
  EXPECT_EQ(s.count(), 1u);
}

TEST(AffinitySetTest, AllAndSingleFactories) {
  const AffinitySet all = AffinitySet::all(5);
  EXPECT_EQ(all.count(), 5u);
  for (ProcessorId p = 0; p < 5; ++p) EXPECT_TRUE(all.contains(p));
  EXPECT_FALSE(all.contains(5));

  const AffinitySet one = AffinitySet::single(7);
  EXPECT_EQ(one.count(), 1u);
  EXPECT_TRUE(one.contains(7));

  const AffinitySet none = AffinitySet::none();
  EXPECT_TRUE(none.empty());
}

TEST(AffinitySetTest, FullWidthAll) {
  const AffinitySet all = AffinitySet::all(64);
  EXPECT_EQ(all.count(), 64u);
  EXPECT_TRUE(all.contains(63));
}

TEST(AffinitySetTest, BoundsChecked) {
  AffinitySet s;
  EXPECT_THROW(s.add(64), InvalidArgument);
  EXPECT_THROW(static_cast<void>(s.contains(64)), InvalidArgument);
  EXPECT_THROW(AffinitySet::all(65), InvalidArgument);
}

TEST(AffinitySetTest, ToVectorAscending) {
  AffinitySet s;
  s.add(9);
  s.add(0);
  s.add(42);
  const auto v = s.to_vector();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 0u);
  EXPECT_EQ(v[1], 9u);
  EXPECT_EQ(v[2], 42u);
}

TEST(TaskTest, SlackComputation) {
  Task t;
  t.processing = msec(3);
  t.deadline = SimTime::zero() + msec(10);
  EXPECT_EQ(t.slack_at(SimTime::zero()), msec(7));
  EXPECT_EQ(t.slack_at(SimTime::zero() + msec(7)), SimDuration::zero());
  EXPECT_TRUE(t.slack_at(SimTime::zero() + msec(8)).is_negative());
}

TEST(TaskTest, DeadlineUnreachable) {
  Task t;
  t.processing = msec(3);
  t.deadline = SimTime::zero() + msec(10);
  EXPECT_FALSE(t.deadline_unreachable(SimTime::zero()));
  EXPECT_FALSE(t.deadline_unreachable(SimTime::zero() + msec(7)));
  EXPECT_TRUE(t.deadline_unreachable(SimTime::zero() + msec(8)));
}

TEST(TaskTest, ToStringMentionsFields) {
  Task t;
  t.id = 12;
  t.processing = usec(77);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("T12"), std::string::npos);
  EXPECT_NE(s.find("77"), std::string::npos);
}

}  // namespace
}  // namespace rtds::tasks
