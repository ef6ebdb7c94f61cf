// Gang/moldable jobs in the predictive feasibility test: a k-worker task
// occupies the contiguous block [worker, worker+k), its start is bound by
// the busiest worker of the block, push charges every block member and pop
// restores them exactly — on both the optimized PartialSchedule and the
// frozen reference engine (spot-checked here; the full bit-identical sweep
// lives in equivalence_test.cc).
#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "machine/interconnect.h"
#include "search/partial_schedule.h"

namespace rtds::search {
namespace {

using tasks::AffinitySet;
using tasks::ProcessorId;

/// One 2-wide gang and two singletons on a 3-worker machine, zero comm.
std::vector<Task> gang_batch() {
  std::vector<Task> batch(3);
  batch[0].id = 0;  // the gang: p=4ms, width 2
  batch[0].processing = msec(4);
  batch[0].deadline = SimTime::zero() + msec(40);
  batch[0].affinity = AffinitySet::all(3);
  batch[0].workers_required = 2;
  batch[1].id = 1;
  batch[1].processing = msec(2);
  batch[1].deadline = SimTime::zero() + msec(40);
  batch[1].affinity = AffinitySet::all(3);
  batch[2].id = 2;
  batch[2].processing = msec(6);
  batch[2].deadline = SimTime::zero() + msec(40);
  batch[2].affinity = AffinitySet::all(3);
  return batch;
}

machine::Interconnect net3() {
  return machine::Interconnect::cut_through(3, SimDuration::zero());
}

TEST(GangFeasibilityTest, StartBoundByBusiestWorkerOfBlock) {
  const auto batch = gang_batch();
  const auto net = net3();
  // Worker 1 carries 5ms of residual load; workers 0 and 2 are idle.
  const tasks::Batch set(batch);
  PartialSchedule ps(&set, {SimDuration::zero(), msec(5), SimDuration::zero()},
                     SimTime::zero(), &net);
  // Lead 0 occupies {0, 1}: the gang waits for worker 1 -> ends at 9ms.
  const auto a = ps.evaluate(0, 0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->start_offset, msec(5));
  EXPECT_EQ(a->end_offset, msec(9));
  // Lead 1 occupies {1, 2}: same busiest member, same end.
  const auto b = ps.evaluate(0, 1);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->end_offset, msec(9));
}

TEST(GangFeasibilityTest, BlockExceedingMachineIsInfeasible) {
  const auto batch = gang_batch();
  const auto net = net3();
  const tasks::Batch set(batch);
  PartialSchedule ps(&set,
                     std::vector<SimDuration>(3, SimDuration::zero()),
                     SimTime::zero(), &net);
  // Width 2 with lead 2 would need worker 3: structurally infeasible.
  EXPECT_FALSE(ps.evaluate(0, 2).has_value());
  Assignment fast;
  EXPECT_FALSE(ps.evaluate_fast(0, 2, fast));
  // A width wider than the machine is infeasible everywhere.
  std::vector<Task> wide = batch;
  wide[0].workers_required = 4;
  const tasks::Batch wps_set(wide);
  PartialSchedule wps(&wps_set, std::vector<SimDuration>(3, SimDuration::zero()),
                      SimTime::zero(), &net);
  for (std::uint32_t k = 0; k < 3; ++k) {
    EXPECT_FALSE(wps.evaluate(0, k).has_value()) << "lead " << k;
  }
}

TEST(GangFeasibilityTest, DeadlineTestChargesWholeBlockOccupancy) {
  const auto batch = gang_batch();
  const auto net = net3();
  // Delivery at 37ms: the 4ms gang ends at 41 > 40 -> infeasible; the 2ms
  // singleton still fits (39 <= 40).
  const tasks::Batch set(batch);
  PartialSchedule ps(&set, std::vector<SimDuration>(3, SimDuration::zero()),
                     SimTime::zero() + msec(37), &net);
  EXPECT_FALSE(ps.evaluate(0, 0).has_value());
  EXPECT_TRUE(ps.evaluate(1, 0).has_value());
}

TEST(GangPushPopTest, PushChargesEveryBlockMemberAndPopRestores) {
  const auto batch = gang_batch();
  const auto net = net3();
  const tasks::Batch set(batch);
  PartialSchedule ps(&set, {msec(1), SimDuration::zero(), msec(2)},
                     SimTime::zero(), &net);
  const SimDuration ce0 = ps.ce(0);
  const SimDuration ce1 = ps.ce(1);
  const SimDuration ce2 = ps.ce(2);
  // Gang with lead 1 occupies {1, 2}: starts at worker 2's 2ms load.
  const auto a = ps.evaluate(0, 1);
  ASSERT_TRUE(a.has_value());
  ps.push(*a);
  EXPECT_EQ(ps.ce(1), msec(6));
  EXPECT_EQ(ps.ce(2), msec(6));  // sibling charged the same completion
  EXPECT_EQ(ps.ce(0), ce0);      // outside the block: untouched
  // A singleton queued behind the gang on the sibling worker.
  const auto b = ps.evaluate(2, 2);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->end_offset, msec(12));
  ps.push(*b);
  ps.pop();  // singleton
  ps.pop();  // gang: both block members restored
  EXPECT_EQ(ps.ce(0), ce0);
  EXPECT_EQ(ps.ce(1), ce1);
  EXPECT_EQ(ps.ce(2), ce2);
  EXPECT_EQ(ps.depth(), 0u);
  EXPECT_FALSE(ps.assigned(0));
}

TEST(GangPushPopTest, CommPricedAgainstLeadAffinityOnly) {
  // The gang's input ships to the lead; siblings never pay communication.
  std::vector<Task> batch(1);
  batch[0].id = 0;
  batch[0].processing = msec(3);
  batch[0].deadline = SimTime::zero() + msec(60);
  batch[0].affinity = AffinitySet::single(0);
  batch[0].workers_required = 2;
  const auto net = machine::Interconnect::cut_through(3, msec(2));
  const tasks::Batch set(batch);
  PartialSchedule ps(&set, std::vector<SimDuration>(3, SimDuration::zero()),
                     SimTime::zero(), &net);
  const auto affine = ps.evaluate(0, 0);  // lead affine: no comm
  ASSERT_TRUE(affine.has_value());
  EXPECT_EQ(affine->exec_cost, msec(3));
  const auto remote = ps.evaluate(0, 1);  // lead remote: one comm charge
  ASSERT_TRUE(remote.has_value());
  EXPECT_EQ(remote->exec_cost, msec(5));
}

TEST(GangPropertyTest, RandomGangPushPopRestoresExactState) {
  // Property: any push sequence of mixed gangs/singletons, fully popped,
  // restores every worker's ce to its base load (the gang side-stack must
  // unwind in exact LIFO order).
  Xoshiro256ss rng(0x6A16);
  constexpr std::uint32_t kWorkers = 5;
  const auto net = machine::Interconnect::cut_through(kWorkers, usec(500));
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<Task> batch(10);
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
      batch[i].id = i;
      batch[i].processing = rng.uniform_duration(usec(100), msec(5));
      batch[i].deadline = SimTime::zero() + msec(500);
      batch[i].affinity = AffinitySet::all(kWorkers);
      if (rng.bernoulli(0.5)) {
        batch[i].workers_required =
            static_cast<std::uint32_t>(rng.uniform_int(2, kWorkers));
      }
    }
    std::vector<SimDuration> base(kWorkers);
    for (auto& l : base) l = rng.uniform_duration(SimDuration::zero(), msec(2));
    const tasks::Batch set(batch);
    PartialSchedule ps(&set, base, SimTime::zero(), &net);
    std::uint32_t pushed = 0;
    for (std::uint32_t i = 0; i < batch.size(); ++i) {
      const auto lead = static_cast<ProcessorId>(
          rng.uniform_int(0, kWorkers - 1));
      if (const auto a = ps.evaluate(i, lead)) {
        ps.push(*a);
        ++pushed;
        // Invariant mid-path: every member of every pushed block has
        // ce >= that assignment's end (later pushes only grow it).
        const std::uint32_t width = batch[i].workers_required;
        for (std::uint32_t j = 0; j < width; ++j) {
          EXPECT_GE(ps.ce(lead + j), a->end_offset);
        }
        // Occasionally back out immediately and re-push: exercises the
        // undo stack at interior depths, not just full unwind.
        if (rng.bernoulli(0.25)) {
          ps.pop();
          const auto again = ps.evaluate(i, lead);
          ASSERT_TRUE(again.has_value());
          EXPECT_EQ(again->end_offset, a->end_offset);
          ps.push(*again);
        }
      }
    }
    while (ps.depth() > 0) ps.pop();
    for (std::uint32_t k = 0; k < kWorkers; ++k) {
      EXPECT_EQ(ps.ce(k), base[k]) << "trial " << trial << " worker " << k;
    }
    EXPECT_GT(pushed, 0u);
  }
}

TEST(GangConstructionTest, RejectsZeroWidth) {
  std::vector<Task> batch(1);
  batch[0].id = 0;
  batch[0].processing = msec(1);
  batch[0].deadline = SimTime::zero() + msec(10);
  batch[0].affinity = AffinitySet::single(0);
  batch[0].workers_required = 0;
  // The pending set refuses it, so no search ever sees a zero width.
  EXPECT_THROW(tasks::Batch{batch}, InvalidArgument);
}

}  // namespace
}  // namespace rtds::search
