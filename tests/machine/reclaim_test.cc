// Tests of the resource-reclaiming execution mode (paper ref [3]).
#include <gtest/gtest.h>

#include "common/error.h"
#include "machine/cluster.h"

namespace rtds::machine {
namespace {

Task make_task(tasks::TaskId id, SimDuration worst, SimDuration actual,
               SimTime d) {
  Task t;
  t.id = id;
  t.processing = worst;
  t.actual_processing = actual;
  t.deadline = d;
  t.affinity.add(0);
  return t;
}

Cluster make_cluster(ReclaimMode mode) {
  return Cluster(1, Interconnect::cut_through(1, SimDuration::zero()), mode,
                 CompletionLog::kKeep);
}

TEST(TaskEffectiveProcessingTest, ZeroMeansWorstCase) {
  Task t;
  t.processing = msec(5);
  EXPECT_EQ(t.effective_processing(), msec(5));
  t.actual_processing = msec(2);
  EXPECT_EQ(t.effective_processing(), msec(2));
}

TEST(ReclaimTest, WorstCaseModeIgnoresActualCosts) {
  Cluster cl = make_cluster(ReclaimMode::kWorstCase);
  cl.deliver({{make_task(1, msec(10), msec(2), SimTime{1000000}), 0}},
             SimTime::zero());
  EXPECT_EQ(cl.log()[0].end, SimTime::zero() + msec(10));
  EXPECT_EQ(cl.reclaimed_time(), SimDuration::zero());
  EXPECT_EQ(cl.reclaim_mode(), ReclaimMode::kWorstCase);
}

TEST(ReclaimTest, ReclaimModeExecutesActualAndStartsNextEarly) {
  Cluster cl = make_cluster(ReclaimMode::kReclaim);
  cl.deliver({{make_task(1, msec(10), msec(2), SimTime{1000000}), 0},
              {make_task(2, msec(4), msec(4), SimTime{1000000}), 0}},
             SimTime::zero());
  // Task 1 really finishes at 2ms; task 2 starts there, not at 10ms.
  EXPECT_EQ(cl.log()[0].end, SimTime::zero() + msec(2));
  EXPECT_EQ(cl.log()[1].start, SimTime::zero() + msec(2));
  EXPECT_EQ(cl.log()[1].end, SimTime::zero() + msec(6));
  EXPECT_EQ(cl.reclaimed_time(), msec(8));
}

TEST(ReclaimTest, ReclaimingOnlyMovesCompletionsEarlier) {
  // The soundness property behind the theorem: for the same delivery, every
  // completion under reclaiming is <= the worst-case completion.
  const auto run = [&](ReclaimMode mode) {
    Cluster cl = make_cluster(mode);
    std::vector<ScheduledAssignment> sched;
    for (tasks::TaskId i = 0; i < 10; ++i) {
      sched.push_back({make_task(i, msec(5), msec(1 + std::int64_t(i) % 5),
                                 SimTime{10000000}),
                       0});
    }
    cl.deliver(sched, SimTime::zero());
    return cl;
  };
  const Cluster worst = run(ReclaimMode::kWorstCase);
  const Cluster reclaim = run(ReclaimMode::kReclaim);
  for (std::size_t i = 0; i < worst.log().size(); ++i) {
    EXPECT_LE(reclaim.log()[i].end, worst.log()[i].end);
  }
  EXPECT_LE(reclaim.makespan(), worst.makespan());
}

TEST(ReclaimTest, TurnsMissIntoHit) {
  // Worst-case planning would miss; actual execution makes the deadline.
  Cluster worst = make_cluster(ReclaimMode::kWorstCase);
  Cluster reclaim = make_cluster(ReclaimMode::kReclaim);
  const std::vector<ScheduledAssignment> sched{
      {make_task(1, msec(10), msec(2), SimTime{1000000}), 0},
      {make_task(2, msec(4), msec(4), SimTime::zero() + msec(8)), 0}};
  worst.deliver(sched, SimTime::zero());
  reclaim.deliver(sched, SimTime::zero());
  EXPECT_EQ(worst.stats().deadline_misses, 1u);
  EXPECT_EQ(reclaim.stats().deadline_misses, 0u);
}

TEST(ReclaimTest, RejectsActualAboveWorstCase) {
  Cluster cl = make_cluster(ReclaimMode::kReclaim);
  EXPECT_THROW(
      cl.deliver({{make_task(1, msec(2), msec(5), SimTime{1000000}), 0}},
                 SimTime::zero()),
      InvalidArgument);
}

TEST(ReclaimTest, BusyTimeReflectsActualDemand) {
  Cluster cl = make_cluster(ReclaimMode::kReclaim);
  cl.deliver({{make_task(1, msec(10), msec(3), SimTime{1000000}), 0}},
             SimTime::zero());
  EXPECT_EQ(cl.busy_time(0), msec(3));
  EXPECT_EQ(cl.load(0, SimTime::zero()), msec(3));
}

}  // namespace
}  // namespace rtds::machine
