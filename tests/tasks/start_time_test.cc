// Tests of the start-time-constraint task model (footnote 1 of the paper).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "machine/cluster.h"
#include "machine/validator.h"
#include "search/engine.h"
#include "sched/backend.h"
#include "sched/pipeline.h"
#include "sched/registry.h"
#include "sim/simulator.h"
#include "tasks/workload.h"

namespace rtds::tasks {
namespace {

TEST(StartTimeTaskTest, SlackAndReachabilityUseEffectiveStart) {
  Task t;
  t.processing = msec(3);
  t.deadline = SimTime::zero() + msec(10);
  t.earliest_start = SimTime::zero() + msec(5);
  // Before the constraint, slack is measured from the constraint.
  EXPECT_EQ(t.slack_at(SimTime::zero()), msec(2));
  EXPECT_EQ(t.slack_at(SimTime::zero() + msec(6)), msec(1));
  EXPECT_FALSE(t.deadline_unreachable(SimTime::zero()));
  // At t=8ms: start at 8, 8+3 > 10 -> unreachable.
  EXPECT_TRUE(t.deadline_unreachable(SimTime::zero() + msec(8)));
}

TEST(StartTimeSearchTest, FeasibilityAccountsForIdleGap) {
  // Worker idle at delivery, but the task may not start until 8ms; with
  // deadline 10ms and p=3ms the assignment is infeasible even though the
  // queue is empty.
  std::vector<Task> batch(1);
  batch[0].id = 0;
  batch[0].processing = msec(3);
  batch[0].deadline = SimTime::zero() + msec(10);
  batch[0].earliest_start = SimTime::zero() + msec(8);
  batch[0].affinity.add(0);
  const auto net = machine::Interconnect::cut_through(1, SimDuration::zero());
  const tasks::Batch set(batch);
  search::PartialSchedule ps(&set, {SimDuration::zero()},
                             SimTime::zero() + msec(1), &net);
  EXPECT_FALSE(ps.evaluate(0, 0).has_value());
  // The bulk lower bound sees the gap too: no worker can take the task.
  EXPECT_TRUE(ps.task_unplaceable(0, ps.min_ce()));

  // Relax the constraint to 7ms: 7 + 3 = 10 <= 10, feasible, and the
  // start/end offsets reflect the idle gap from the 1ms delivery. The set
  // holds its own copy of the tasks, so evaluate through a fresh set and
  // schedule.
  batch[0].earliest_start = SimTime::zero() + msec(7);
  const tasks::Batch relaxed_set(batch);
  search::PartialSchedule relaxed(&relaxed_set, {SimDuration::zero()},
                                  SimTime::zero() + msec(1), &net);
  EXPECT_FALSE(relaxed.task_unplaceable(0, relaxed.min_ce()));
  const auto a = relaxed.evaluate(0, 0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->start_offset, msec(6));  // idles 6ms past delivery
  EXPECT_EQ(a->end_offset, msec(9));
}

TEST(StartTimeSearchTest, PushPopRestoreAcrossIdleGaps) {
  // The undo value must restore the pre-gap queue offset exactly.
  std::vector<Task> batch(2);
  for (std::uint32_t i = 0; i < 2; ++i) {
    batch[i].id = i;
    batch[i].processing = msec(2);
    batch[i].deadline = SimTime::zero() + msec(50);
    batch[i].affinity.add(0);
  }
  batch[0].earliest_start = SimTime::zero() + msec(10);
  const auto net = machine::Interconnect::cut_through(1, SimDuration::zero());
  const tasks::Batch set(batch);
  search::PartialSchedule ps(&set, {msec(1)}, SimTime::zero() + msec(1),
                             &net);
  const auto a = ps.evaluate(0, 0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->start_offset, msec(9));  // gap: queue had only 1ms
  ps.push(*a);
  EXPECT_EQ(ps.ce(0), msec(11));
  ps.pop();
  EXPECT_EQ(ps.ce(0), msec(1));  // not 11 - 2
}

TEST(StartTimeClusterTest, WorkerIdlesUntilConstraint) {
  machine::Cluster cl(
      1, machine::Interconnect::cut_through(1, SimDuration::zero()),
      machine::ReclaimMode::kWorstCase, machine::CompletionLog::kKeep);
  Task t;
  t.id = 1;
  t.processing = msec(2);
  t.deadline = SimTime::zero() + msec(50);
  t.earliest_start = SimTime::zero() + msec(10);
  t.affinity.add(0);
  cl.deliver({{t, 0}}, SimTime::zero() + msec(1));
  ASSERT_EQ(cl.log().size(), 1u);
  EXPECT_EQ(cl.log()[0].start, SimTime::zero() + msec(10));
  EXPECT_EQ(cl.log()[0].end, SimTime::zero() + msec(12));
  // Busy time excludes the idle gap.
  EXPECT_EQ(cl.busy_time(0), msec(2));
}

TEST(StartTimeEndToEndTest, TheoremAndValidatorHoldWithConstraints) {
  for (const char* spec : {"rt_sads", "d_cols"}) {
    const auto algo = sched::AlgorithmRegistry::builtin().make(spec);
    machine::Cluster cluster(4, machine::Interconnect::cut_through(4, msec(2)),
                             machine::ReclaimMode::kWorstCase,
                             machine::CompletionLog::kKeep);
    sim::Simulator sim;
    const auto quantum = sched::make_self_adjusting_quantum(usec(100),
                                                            msec(10));
    WorkloadConfig wc;
    wc.num_tasks = 200;
    wc.num_processors = 4;
    wc.max_start_offset = msec(20);
    wc.laxity_min = 3.0;
    wc.laxity_max = 10.0;
    Xoshiro256ss rng(5);
    const auto wl = generate_workload(wc, rng);
    // The generator must actually emit constraints.
    bool any_constrained = false;
    for (const Task& t : wl) {
      if (t.earliest_start > t.arrival) any_constrained = true;
    }
    ASSERT_TRUE(any_constrained);

    const sched::PhasePipeline pipeline(*algo, *quantum);
    sched::SimBackend backend(cluster, sim);
    const sched::RunMetrics m = pipeline.run(wl, backend);
    EXPECT_EQ(m.exec_misses, 0u) << algo->name();
    const machine::ValidationReport vr =
        machine::validate_execution(cluster, wl);
    EXPECT_TRUE(vr.ok()) << algo->name() << ":\n" << vr.to_string();
    EXPECT_GT(m.deadline_hits, 0u);
  }
}

TEST(StartTimeWorkloadTest, OffsetsWithinRangeAndDeadlinesAfterStart) {
  WorkloadConfig wc;
  wc.num_tasks = 300;
  wc.num_processors = 4;
  wc.max_start_offset = msec(15);
  Xoshiro256ss rng(6);
  for (const Task& t : generate_workload(wc, rng)) {
    EXPECT_GE(t.earliest_start, t.arrival);
    EXPECT_LE(t.earliest_start - t.arrival, msec(15));
    EXPECT_GT(t.deadline, t.earliest_start);
  }
}

}  // namespace
}  // namespace rtds::tasks
