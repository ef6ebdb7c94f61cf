#include "search/partial_schedule.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

namespace rtds::search {
namespace {

using tasks::AffinitySet;

std::vector<Task> three_task_batch() {
  // Three tasks on a 2-worker machine, C = 2ms, delivery at t=10ms.
  std::vector<Task> batch(3);
  batch[0].id = 0;
  batch[0].processing = msec(4);
  batch[0].deadline = SimTime::zero() + msec(30);
  batch[0].affinity = AffinitySet::single(0);
  batch[1].id = 1;
  batch[1].processing = msec(2);
  batch[1].deadline = SimTime::zero() + msec(16);
  batch[1].affinity = AffinitySet::single(1);
  batch[2].id = 2;
  batch[2].processing = msec(6);
  batch[2].deadline = SimTime::zero() + msec(50);
  batch[2].affinity = AffinitySet::all(2);
  return batch;
}

machine::Interconnect net2() {
  return machine::Interconnect::cut_through(2, msec(2));
}

TEST(PartialScheduleTest, InitialState) {
  const auto batch = three_task_batch();
  const auto net = net2();
  const tasks::Batch set(batch);
  PartialSchedule ps(&set, {msec(1), SimDuration::zero()},
                     SimTime::zero() + msec(10), &net);
  EXPECT_EQ(ps.depth(), 0u);
  EXPECT_EQ(ps.batch_size(), 3u);
  EXPECT_FALSE(ps.complete());
  EXPECT_EQ(ps.ce(0), msec(1));
  EXPECT_EQ(ps.ce(1), SimDuration::zero());
  EXPECT_EQ(ps.max_ce(), msec(1));
  for (std::uint32_t i = 0; i < 3; ++i) EXPECT_FALSE(ps.assigned(i));
}

TEST(PartialScheduleTest, ValidatesConstruction) {
  const auto batch = three_task_batch();
  const auto net = net2();
  const tasks::Batch set(batch);
  EXPECT_THROW(PartialSchedule(&set, {msec(1)}, SimTime::zero(), &net),
               InvalidArgument);  // wrong base_loads size
  EXPECT_THROW(
      PartialSchedule(&set, {msec(1), usec(-1)}, SimTime::zero(), &net),
      InvalidArgument);  // negative load
}

TEST(PartialScheduleTest, EvaluateComputesCostAndEnd) {
  const auto batch = three_task_batch();
  const auto net = net2();
  const tasks::Batch set(batch);
  PartialSchedule ps(&set, {SimDuration::zero(), SimDuration::zero()},
                     SimTime::zero() + msec(10), &net);
  // Task 0 on worker 0 (affine): cost 4ms, ends at offset 4ms.
  const auto a = ps.evaluate(0, 0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->exec_cost, msec(4));
  EXPECT_EQ(a->end_offset, msec(4));
  // Task 0 on worker 1 (remote): cost 6ms.
  const auto b = ps.evaluate(0, 1);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->exec_cost, msec(6));
}

TEST(PartialScheduleTest, FeasibilityTestMatchesFig4) {
  const auto batch = three_task_batch();
  const auto net = net2();
  // Task 1: p=2ms, d=16ms, affine to worker 1.
  // delivery 10ms: on worker 1 end offset 2 -> 12 <= 16 feasible.
  // on worker 0: cost 4 -> 14 <= 16 feasible.
  const tasks::Batch set(batch);
  PartialSchedule ps(&set, {SimDuration::zero(), SimDuration::zero()},
                     SimTime::zero() + msec(10), &net);
  EXPECT_TRUE(ps.evaluate(1, 1).has_value());
  EXPECT_TRUE(ps.evaluate(1, 0).has_value());
  // With delivery at 13ms, worker 0 gives 13+4=17 > 16: infeasible, while
  // the affine worker 1 gives 13+2=15 <= 16: still feasible.
  const tasks::Batch late_set(batch);
  PartialSchedule late(&late_set, {SimDuration::zero(), SimDuration::zero()},
                       SimTime::zero() + msec(13), &net);
  EXPECT_FALSE(late.evaluate(1, 0).has_value());
  EXPECT_TRUE(late.evaluate(1, 1).has_value());
}

TEST(PartialScheduleTest, FeasibilityBoundaryExactDeadlineIsFeasible) {
  const auto batch = three_task_batch();
  const auto net = net2();
  // Task 1 on worker 1: delivery 14ms + 2ms = 16ms == deadline -> feasible.
  const tasks::Batch set(batch);
  PartialSchedule ps(&set, {SimDuration::zero(), SimDuration::zero()},
                     SimTime::zero() + msec(14), &net);
  EXPECT_TRUE(ps.evaluate(1, 1).has_value());
  // One microsecond later it flips.
  const tasks::Batch ps2_set(batch);
  PartialSchedule ps2(&ps2_set, {SimDuration::zero(), SimDuration::zero()},
                      SimTime::zero() + msec(14) + usec(1), &net);
  EXPECT_FALSE(ps2.evaluate(1, 1).has_value());
}

TEST(PartialScheduleTest, BaseLoadDelaysQueue) {
  const auto batch = three_task_batch();
  const auto net = net2();
  const tasks::Batch set(batch);
  PartialSchedule ps(&set, {msec(5), SimDuration::zero()},
                     SimTime::zero() + msec(10), &net);
  const auto a = ps.evaluate(0, 0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->end_offset, msec(9));  // 5 residual + 4 processing
}

TEST(PartialSchedulePushTest, UpdatesState) {
  const auto batch = three_task_batch();
  const auto net = net2();
  const tasks::Batch set(batch);
  PartialSchedule ps(&set, {SimDuration::zero(), SimDuration::zero()},
                     SimTime::zero() + msec(10), &net);
  const auto a = ps.evaluate(0, 0);
  ps.push(*a);
  EXPECT_EQ(ps.depth(), 1u);
  EXPECT_TRUE(ps.assigned(0));
  EXPECT_EQ(ps.ce(0), msec(4));
  EXPECT_EQ(ps.max_ce(), msec(4));
  // Queueing: task 2 behind task 0 on worker 0.
  const auto b = ps.evaluate(2, 0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->end_offset, msec(10));
  ps.push(*b);
  EXPECT_EQ(ps.ce(0), msec(10));
  EXPECT_EQ(ps.max_ce(), msec(10));
}

TEST(PartialSchedulePushTest, CompleteAtFullDepth) {
  const auto batch = three_task_batch();
  const auto net = net2();
  const tasks::Batch set(batch);
  PartialSchedule ps(&set, {SimDuration::zero(), SimDuration::zero()},
                     SimTime::zero() + msec(1), &net);
  ps.push(*ps.evaluate(0, 0));
  ps.push(*ps.evaluate(1, 1));
  ps.push(*ps.evaluate(2, 1));
  EXPECT_TRUE(ps.complete());
  EXPECT_EQ(ps.path().size(), 3u);
}

TEST(PartialSchedulePushTest, EvaluateRejectsAssignedTask) {
  const auto batch = three_task_batch();
  const auto net = net2();
  const tasks::Batch set(batch);
  PartialSchedule ps(&set, {SimDuration::zero(), SimDuration::zero()},
                     SimTime::zero() + msec(1), &net);
  ps.push(*ps.evaluate(0, 0));
  EXPECT_THROW(static_cast<void>(ps.evaluate(0, 1)), InvalidArgument);
}

TEST(PartialSchedulePopTest, RestoresExactState) {
  const auto batch = three_task_batch();
  const auto net = net2();
  const tasks::Batch set(batch);
  PartialSchedule ps(&set, {msec(1), SimDuration::zero()},
                     SimTime::zero() + msec(5), &net);
  const SimDuration ce0 = ps.ce(0);
  const SimDuration max0 = ps.max_ce();
  ps.push(*ps.evaluate(2, 0));
  ps.pop();
  EXPECT_EQ(ps.depth(), 0u);
  EXPECT_FALSE(ps.assigned(2));
  EXPECT_EQ(ps.ce(0), ce0);
  EXPECT_EQ(ps.max_ce(), max0);
  EXPECT_THROW(ps.pop(), InvalidArgument);
}

TEST(PartialSchedulePopTest, MaxCeRecomputedAfterPop) {
  const auto batch = three_task_batch();
  const auto net = net2();
  const tasks::Batch set(batch);
  PartialSchedule ps(&set, {SimDuration::zero(), SimDuration::zero()},
                     SimTime::zero() + msec(1), &net);
  ps.push(*ps.evaluate(1, 1));            // ce1 = 2ms
  ps.push(*ps.evaluate(2, 0));            // ce0 = 6ms, max = 6ms
  EXPECT_EQ(ps.max_ce(), msec(6));
  ps.pop();                               // removes the 6ms defining max
  EXPECT_EQ(ps.max_ce(), msec(2));
}

TEST(PartialSchedulePropertyTest, RandomPushPopKeepsInvariants) {
  // Property: after any interleaving of pushes and pops, ce_k equals the
  // base load plus the sum of costs assigned to k, and max_ce is the max.
  Xoshiro256ss rng(99);
  constexpr std::uint32_t kWorkers = 4;
  const auto net = machine::Interconnect::cut_through(kWorkers, msec(1));
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Task> batch(12);
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
      batch[i].id = i;
      batch[i].processing = rng.uniform_duration(usec(100), msec(5));
      batch[i].deadline = SimTime::zero() + msec(200);
      batch[i].affinity.add(static_cast<tasks::ProcessorId>(
          rng.uniform_int(0, kWorkers - 1)));
    }
    const tasks::Batch set(batch);
    PartialSchedule ps(&set, std::vector<SimDuration>(kWorkers, usec(50)),
                       SimTime::zero() + msec(1), &net);
    std::vector<Assignment> stack;
    for (int step = 0; step < 200; ++step) {
      const bool can_push = !ps.complete();
      const bool do_push =
          can_push && (stack.empty() || rng.bernoulli(0.6));
      if (do_push) {
        // Find any unassigned task; try a random worker.
        std::uint32_t task = 0;
        while (ps.assigned(task)) ++task;
        const auto w = static_cast<tasks::ProcessorId>(
            rng.uniform_int(0, kWorkers - 1));
        if (auto a = ps.evaluate(task, w)) {
          ps.push(*a);
          stack.push_back(*a);
        }
      } else if (!stack.empty()) {
        ps.pop();
        stack.pop_back();
      }
      // Check the invariant.
      std::vector<SimDuration> expect(kWorkers, usec(50));
      for (const Assignment& a : stack) {
        expect[a.worker] += a.exec_cost;
      }
      SimDuration expect_max = SimDuration::zero();
      for (std::uint32_t k = 0; k < kWorkers; ++k) {
        ASSERT_EQ(ps.ce(k), expect[k]);
        expect_max = max_duration(expect_max, expect[k]);
      }
      ASSERT_EQ(ps.max_ce(), expect_max);
      ASSERT_EQ(ps.depth(), stack.size());
    }
  }
}

}  // namespace
}  // namespace rtds::search
