#include "sched/algorithm.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "sched/registry.h"

namespace rtds::sched {
namespace {

using search::Assignment;
using tasks::AffinitySet;

Task make_task(std::uint32_t id, SimDuration p, SimTime d,
               AffinitySet affinity) {
  Task t;
  t.id = id;
  t.processing = p;
  t.deadline = d;
  t.affinity = affinity;
  return t;
}

std::vector<Task> uniform_batch(std::uint32_t n, std::uint32_t m,
                                SimDuration p, SimDuration window) {
  std::vector<Task> batch;
  for (std::uint32_t i = 0; i < n; ++i) {
    batch.push_back(
        make_task(i, p, SimTime::zero() + window, AffinitySet::all(m)));
  }
  return batch;
}

TEST(PresetsTest, RtSadsUsesAssignmentRepresentation) {
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto* ts = dynamic_cast<const TreeSearchAlgorithm*>(algo.get());
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->search_config().representation,
            search::Representation::kAssignmentOriented);
  EXPECT_TRUE(ts->search_config().use_load_balance_cost);
}

TEST(PresetsTest, DColsUsesSequenceRepresentation) {
  const auto algo = AlgorithmRegistry::builtin().make("d_cols");
  const auto* ts = dynamic_cast<const TreeSearchAlgorithm*>(algo.get());
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->search_config().representation,
            search::Representation::kSequenceOriented);
}

TEST(GreedyTest, EdfBestFitBalancesIdenticalTasks) {
  const std::uint32_t m = 4;
  const auto net = machine::Interconnect::cut_through(m, msec(2));
  const auto batch = uniform_batch(8, m, msec(2), msec(100));
  const auto r = GreedyAlgorithm("edf_bf", GreedyKind::kEdfBestFit)
                     .schedule_phase(batch, std::vector<SimDuration>(m, SimDuration{}),
                                     SimTime::zero() + msec(1), net, 100000);
  ASSERT_EQ(r.schedule.size(), 8u);
  std::vector<int> per_worker(m, 0);
  for (const Assignment& a : r.schedule) ++per_worker[a.worker];
  for (int c : per_worker) EXPECT_EQ(c, 2);
}

TEST(GreedyTest, EdfFirstFitPilesOnFirstFeasibleWorker) {
  const std::uint32_t m = 4;
  const auto net = machine::Interconnect::cut_through(m, msec(2));
  const auto batch = uniform_batch(4, m, msec(2), msec(100));
  const auto r = AlgorithmRegistry::builtin().make("edf_ff")->schedule_phase(
      batch, std::vector<SimDuration>(m, SimDuration{}),
      SimTime::zero() + msec(1), net, 100000);
  ASSERT_EQ(r.schedule.size(), 4u);
  for (const Assignment& a : r.schedule) EXPECT_EQ(a.worker, 0u);
}

TEST(GreedyTest, SkipsInfeasibleTasksWithoutDeadEnding) {
  const std::uint32_t m = 2;
  const auto net = machine::Interconnect::cut_through(m, msec(2));
  std::vector<Task> batch;
  // Infeasible task (deadline before delivery) between two feasible ones.
  batch.push_back(make_task(0, msec(1), SimTime::zero() + msec(100),
                            AffinitySet::all(m)));
  batch.push_back(
      make_task(1, msec(1), SimTime::zero() + usec(1), AffinitySet::all(m)));
  batch.push_back(make_task(2, msec(1), SimTime::zero() + msec(100),
                            AffinitySet::all(m)));
  for (const char* spec : {"edf_ff", "edf_bf", "myopic"}) {
    const auto algo = AlgorithmRegistry::builtin().make(spec);
    const auto r = algo->schedule_phase(
        batch, std::vector<SimDuration>(m, SimDuration{}), SimTime::zero() + msec(1),
        net, 100000);
    std::set<std::uint32_t> ids;
    for (const Assignment& a : r.schedule) {
      ids.insert(batch[a.task_index].id);
    }
    EXPECT_EQ(ids.count(1u), 0u);
    EXPECT_EQ(ids.size(), 2u) << spec;
  }
}

TEST(GreedyTest, RespectsVertexBudget) {
  const std::uint32_t m = 4;
  const auto net = machine::Interconnect::cut_through(m, msec(2));
  const auto batch = uniform_batch(50, m, msec(1), msec(500));
  for (const char* spec : {"edf_ff", "edf_bf", "myopic"}) {
    const auto algo = AlgorithmRegistry::builtin().make(spec);
    const auto r = algo->schedule_phase(
        batch, std::vector<SimDuration>(m, SimDuration{}), SimTime::zero() + msec(1),
        net, 20);
    EXPECT_LE(r.stats.vertices_generated, 20u);
    EXPECT_TRUE(r.stats.budget_exhausted);
    EXPECT_LT(r.schedule.size(), 50u);
  }
}

TEST(GreedyTest, MyopicPrefersGloballyEarliestFinishInWindow) {
  const std::uint32_t m = 2;
  // C huge: only affine placements feasible.
  const auto net = machine::Interconnect::cut_through(m, sec(10));
  std::vector<Task> batch;
  // Task 0: earliest deadline, long processing, affine worker 0.
  batch.push_back(
      make_task(0, msec(8), SimTime::zero() + msec(20), AffinitySet::single(0)));
  // Task 1: later deadline, short processing, affine worker 1.
  batch.push_back(
      make_task(1, msec(1), SimTime::zero() + msec(30), AffinitySet::single(1)));
  const auto r = GreedyAlgorithm("myopic?window=2", GreedyKind::kMyopic, 2)
                     .schedule_phase(batch, std::vector<SimDuration>(m, SimDuration{}),
                                     SimTime::zero() + msec(1), net, 100000);
  ASSERT_EQ(r.schedule.size(), 2u);
  // Myopic commits the short task (earliest finish) first, unlike pure EDF.
  EXPECT_EQ(batch[r.schedule[0].task_index].id, 1u);
}

TEST(GreedyTest, ProducesOnlyFeasibleSchedules) {
  Xoshiro256ss rng(3);
  const std::uint32_t m = 4;
  const auto net = machine::Interconnect::cut_through(m, msec(3));
  for (const char* spec : {"edf_ff", "edf_bf", "myopic"}) {
    const auto algo = AlgorithmRegistry::builtin().make(spec);
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<Task> batch;
      for (std::uint32_t i = 0; i < 30; ++i) {
        Task t;
        t.id = i;
        t.processing = rng.uniform_duration(usec(200), msec(4));
        t.deadline =
            SimTime::zero() + rng.uniform_duration(msec(3), msec(30));
        t.affinity.add(i % m);
        if (rng.bernoulli(0.3)) t.affinity.add((i + 1) % m);
        batch.push_back(t);
      }
      const SimTime delivery = SimTime::zero() + msec(2);
      const auto r = algo->schedule_phase(
          batch, std::vector<SimDuration>(m, SimDuration{}), delivery, net, 10000);
      std::vector<SimTime> horizon(m, delivery);
      for (const Assignment& a : r.schedule) {
        const Task& t = batch[a.task_index];
        horizon[a.worker] +=
            t.processing + net.comm_cost(t.affinity, a.worker);
        ASSERT_LE(horizon[a.worker], t.deadline);
      }
    }
  }
}

TEST(GreedyTest, ValidatesWindow) {
  EXPECT_THROW(GreedyAlgorithm("myopic?window=0", GreedyKind::kMyopic, 0),
               rtds::InvalidArgument);
}

TEST(PhaseAlgorithmTest, TaskWithNoDataHolderIsInvalidArgument) {
  // A default AffinitySet names no worker holding the task's data. Every
  // algorithm rejects it up front, whichever path would price the task:
  // the scalar loop, D-COLS's task-word mask, or (deadline shorter than
  // the processing time) the bulk charge that evaluates nothing.
  const std::uint32_t m = 4;
  const auto net = machine::Interconnect::cut_through(m, msec(2));
  const SimTime delivery = SimTime::zero() + msec(1);
  for (const SimTime deadline :
       {SimTime::zero() + msec(100), delivery + msec(1)}) {
    const std::vector<Task> batch = {
        make_task(0, msec(2), SimTime::zero() + msec(50),
                  AffinitySet::all(m)),
        make_task(1, msec(2), deadline, AffinitySet{})};
    for (const char* spec : {"rt_sads", "d_cols", "edf_ff", "edf_bf"}) {
      const auto algo = AlgorithmRegistry::builtin().make(spec);
      EXPECT_THROW((void)algo->schedule_phase(
                       batch, std::vector<SimDuration>(m, SimDuration{}),
                       delivery, net, 100000),
                   rtds::InvalidArgument)
          << spec << " deadline " << deadline.us;
    }
  }
}

}  // namespace
}  // namespace rtds::sched
