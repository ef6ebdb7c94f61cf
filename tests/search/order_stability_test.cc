// Stability contract of the task consideration order: all three heuristics
// must break ties by batch position (stable sort), because the batch holds
// arrival/merge order and the paper's heuristics say nothing about equal
// keys — an unstable sort would make schedules depend on sort internals.
#include <gtest/gtest.h>

#include "search/engine.h"

namespace rtds::search {
namespace {

using tasks::AffinitySet;

std::vector<Task> tied_batch() {
  // Six tasks in three tie groups. Deadline ties: {0, 2, 4} at 20ms and
  // {1, 3, 5} at 30ms. Slack (d - p) ties pair tasks across the deadline
  // groups: 0/2/4 have p 4/4/4 (slack 16) and 1/3/5 have p 14/14/14
  // (slack 16) — every task has identical slack, so kMinSlack must return
  // pure batch order.
  std::vector<Task> batch(6);
  for (std::uint32_t i = 0; i < 6; ++i) {
    batch[i].id = i;
    const bool late = (i % 2) == 1;
    batch[i].deadline = SimTime::zero() + msec(late ? 30 : 20);
    batch[i].processing = msec(late ? 14 : 4);
    batch[i].affinity = AffinitySet::all(2);
  }
  return batch;
}

TEST(TaskOrderStabilityTest, BatchOrderIsIdentity) {
  const auto batch = tied_batch();
  const auto order = task_consideration_order(batch, TaskOrder::kBatchOrder);
  ASSERT_EQ(order.size(), batch.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(TaskOrderStabilityTest, EarliestDeadlineKeepsBatchOrderWithinTies) {
  const auto batch = tied_batch();
  const auto order =
      task_consideration_order(batch, TaskOrder::kEarliestDeadline);
  // 20ms group first in batch order, then the 30ms group in batch order.
  const std::vector<std::uint32_t> expected{0, 2, 4, 1, 3, 5};
  EXPECT_EQ(order, expected);
}

TEST(TaskOrderStabilityTest, MinSlackKeepsBatchOrderWhenAllSlacksTie) {
  const auto batch = tied_batch();
  const auto order = task_consideration_order(batch, TaskOrder::kMinSlack);
  // All slacks equal (16ms): stability demands the identity permutation.
  const std::vector<std::uint32_t> expected{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace rtds::search
