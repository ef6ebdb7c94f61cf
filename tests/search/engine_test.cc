#include "search/engine.h"

#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "common/rng.h"

namespace rtds::search {
namespace {

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

machine::Interconnect net(std::uint32_t m, SimDuration c = msec(2)) {
  return machine::Interconnect::cut_through(m, c);
}

SearchConfig rt_sads_config() {
  SearchConfig cfg;
  cfg.representation = Representation::kAssignmentOriented;
  cfg.task_order = TaskOrder::kEarliestDeadline;
  cfg.use_load_balance_cost = true;
  return cfg;
}

SearchConfig d_cols_config() {
  SearchConfig cfg;
  cfg.representation = Representation::kSequenceOriented;
  cfg.task_order = TaskOrder::kEarliestDeadline;
  cfg.use_load_balance_cost = false;
  return cfg;
}

TEST(TaskOrderTest, BatchOrderIsIdentity) {
  std::vector<Task> batch;
  for (std::uint32_t i = 0; i < 5; ++i) {
    batch.push_back(make_task(i, msec(1), SimTime{std::int64_t(1000 - i)},
                              AffinitySet::single(0)));
  }
  const auto order = task_consideration_order(batch, TaskOrder::kBatchOrder);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(order[i], i);
}

TEST(TaskOrderTest, EarliestDeadlineSorts) {
  std::vector<Task> batch;
  batch.push_back(make_task(0, msec(1), SimTime{300}, AffinitySet::single(0)));
  batch.push_back(make_task(1, msec(1), SimTime{100}, AffinitySet::single(0)));
  batch.push_back(make_task(2, msec(1), SimTime{200}, AffinitySet::single(0)));
  const auto order =
      task_consideration_order(batch, TaskOrder::kEarliestDeadline);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 0}));
}

TEST(TaskOrderTest, MinSlackUsesDeadlineMinusProcessing) {
  std::vector<Task> batch;
  // d - p: 900, 150, 500 -> order 1, 2, 0.
  batch.push_back(
      make_task(0, usec(100), SimTime{1000}, AffinitySet::single(0)));
  batch.push_back(
      make_task(1, usec(350), SimTime{500}, AffinitySet::single(0)));
  batch.push_back(
      make_task(2, usec(200), SimTime{700}, AffinitySet::single(0)));
  const auto order = task_consideration_order(batch, TaskOrder::kMinSlack);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{1, 2, 0}));
}

TEST(SearchEngineTest, EmptyBatchOrZeroBudget) {
  const SearchEngine engine(rt_sads_config());
  const auto n = net(2);
  const std::vector<SimDuration> loads(2, SimDuration::zero());
  const auto r1 =
      engine.run(std::vector<Task>{}, loads, SimTime::zero(), n, 100);
  EXPECT_TRUE(r1.schedule.empty());
  EXPECT_EQ(r1.stats.vertices_generated, 0u);

  std::vector<Task> batch{
      make_task(0, msec(1), SimTime{100000}, AffinitySet::single(0))};
  const auto r2 = engine.run(batch, {SimDuration::zero(), SimDuration::zero()},
                             SimTime::zero(), n, 0);
  EXPECT_TRUE(r2.schedule.empty());
}

TEST(SearchEngineTest, InPlaceRunNeedsTheSetInItsTaskOrder) {
  // The set supplies the consideration order; one kept in another order
  // would be searched in the wrong order, so the engine refuses it. The
  // same tasks in EDF order search like the vector adapter, whose indices
  // the set's arrival numbers map back to.
  std::vector<Task> batch;
  for (std::uint32_t i = 0; i < 6; ++i) {
    batch.push_back(make_task(i, msec(1), SimTime::zero() + msec(60 - 7 * i),
                              AffinitySet::all(2)));
  }
  const SearchEngine engine(rt_sads_config());
  const std::vector<SimDuration> loads(2, SimDuration::zero());
  EXPECT_THROW((void)engine.run(tasks::Batch(batch), loads, SimTime::zero(),
                                net(2), 1000),
               InvalidArgument);
  const tasks::Batch edf(batch, TaskOrder::kEarliestDeadline);
  const SearchResult in_place =
      engine.run(edf, loads, SimTime::zero(), net(2), 1000);
  const SearchResult adapted =
      engine.run(batch, loads, SimTime::zero(), net(2), 1000);
  ASSERT_EQ(in_place.schedule.size(), adapted.schedule.size());
  ASSERT_FALSE(in_place.schedule.empty());
  for (std::size_t i = 0; i < in_place.schedule.size(); ++i) {
    EXPECT_EQ(edf.tasks()[in_place.schedule[i].task_index].id,
              batch[adapted.schedule[i].task_index].id);
    EXPECT_EQ(in_place.schedule[i].worker, adapted.schedule[i].worker);
  }
}

TEST(SearchEngineTest, SchedulesEverythingWithAmpleBudget) {
  std::vector<Task> batch;
  for (std::uint32_t i = 0; i < 10; ++i) {
    batch.push_back(make_task(i, msec(1), SimTime::zero() + msec(100),
                              AffinitySet::all(4)));
  }
  const SearchEngine engine(rt_sads_config());
  const auto r = engine.run(batch, std::vector<SimDuration>(4, SimDuration{}),
                            SimTime::zero() + msec(1), net(4), 100000);
  EXPECT_TRUE(r.stats.reached_leaf);
  EXPECT_EQ(r.schedule.size(), 10u);
  // Every task appears exactly once.
  std::set<std::uint32_t> seen;
  for (const Assignment& a : r.schedule) seen.insert(a.task_index);
  EXPECT_EQ(seen.size(), 10u);
}

TEST(SearchEngineTest, LoadBalanceCostSpreadsTasks) {
  // 8 identical tasks, all-affine, 4 workers: the CE-sorted search should
  // round out to 2 per worker.
  std::vector<Task> batch;
  for (std::uint32_t i = 0; i < 8; ++i) {
    batch.push_back(make_task(i, msec(2), SimTime::zero() + msec(100),
                              AffinitySet::all(4)));
  }
  const SearchEngine engine(rt_sads_config());
  const auto r = engine.run(batch, std::vector<SimDuration>(4, SimDuration{}),
                            SimTime::zero() + msec(1), net(4), 100000);
  ASSERT_EQ(r.schedule.size(), 8u);
  std::vector<int> per_worker(4, 0);
  for (const Assignment& a : r.schedule) ++per_worker[a.worker];
  for (int c : per_worker) EXPECT_EQ(c, 2);
}

TEST(SearchEngineTest, RespectsVertexBudgetExactly) {
  std::vector<Task> batch;
  for (std::uint32_t i = 0; i < 20; ++i) {
    batch.push_back(make_task(i, msec(1), SimTime::zero() + msec(500),
                              AffinitySet::all(4)));
  }
  const SearchEngine engine(rt_sads_config());
  for (std::uint64_t budget : {1ull, 5ull, 13ull, 40ull}) {
    const auto r = engine.run(batch, std::vector<SimDuration>(4, SimDuration{}),
                              SimTime::zero() + msec(1), net(4), budget);
    EXPECT_LE(r.stats.vertices_generated, budget);
    if (!r.stats.reached_leaf) {
      EXPECT_TRUE(r.stats.budget_exhausted || r.stats.dead_end);
    }
  }
}

TEST(SearchEngineTest, PartialScheduleWhenBudgetTight) {
  std::vector<Task> batch;
  for (std::uint32_t i = 0; i < 20; ++i) {
    batch.push_back(make_task(i, msec(1), SimTime::zero() + msec(500),
                              AffinitySet::all(4)));
  }
  const SearchEngine engine(rt_sads_config());
  // Budget for ~3 expansions of branching 4.
  const auto r = engine.run(batch, std::vector<SimDuration>(4, SimDuration{}),
                            SimTime::zero() + msec(1), net(4), 12);
  EXPECT_TRUE(r.stats.budget_exhausted);
  EXPECT_GT(r.schedule.size(), 0u);
  EXPECT_LT(r.schedule.size(), 20u);
}

TEST(SearchEngineTest, DeadEndWhenNothingFeasible) {
  // Deadline already violated by the delivery time: every vertex infeasible.
  std::vector<Task> batch{
      make_task(0, msec(5), SimTime::zero() + msec(3), AffinitySet::all(2))};
  const SearchEngine engine(rt_sads_config());
  const auto r = engine.run(batch, std::vector<SimDuration>(2, SimDuration{}),
                            SimTime::zero() + msec(1), net(2), 1000);
  EXPECT_TRUE(r.stats.dead_end);
  EXPECT_TRUE(r.schedule.empty());
  EXPECT_EQ(r.stats.vertices_generated, 2u);  // both workers evaluated
}

TEST(SearchEngineTest, BacktracksOutOfInfeasibleBranch) {
  // Worker 0 is attractive early (affine) but taking it makes the second
  // task infeasible; the search must backtrack and resequence.
  // t0: p=4ms, affine {0,1}; t1: p=4ms, affine {0} only, d tight.
  // delivery at 1ms, C=10ms (remote placement infeasible for t1).
  std::vector<Task> batch;
  AffinitySet both;
  both.add(0);
  both.add(1);
  batch.push_back(make_task(0, msec(4), SimTime::zero() + msec(30), both));
  batch.push_back(
      make_task(1, msec(4), SimTime::zero() + msec(6), AffinitySet::single(0)));
  SearchConfig cfg = rt_sads_config();
  const SearchEngine engine(cfg);
  const auto r = engine.run(batch, std::vector<SimDuration>(2, SimDuration{}),
                            SimTime::zero() + msec(1), net(2, msec(10)), 1000);
  // Feasible only if t1 runs first on worker 0 (EDF picks t1 first anyway).
  ASSERT_EQ(r.schedule.size(), 2u);
  EXPECT_EQ(batch[r.schedule[0].task_index].id, 1u);
  EXPECT_EQ(r.schedule[0].worker, 0u);
  EXPECT_TRUE(r.stats.reached_leaf);
}

TEST(SearchEngineTest, MaxSuccessorsPrunesBranching) {
  std::vector<Task> batch;
  for (std::uint32_t i = 0; i < 6; ++i) {
    batch.push_back(make_task(i, msec(1), SimTime::zero() + msec(100),
                              AffinitySet::all(8)));
  }
  SearchConfig cfg = rt_sads_config();
  cfg.max_successors = 1;  // pure greedy dive
  const auto r = SearchEngine(cfg).run(batch,
                                       std::vector<SimDuration>(8, SimDuration{}),
                                       SimTime::zero() + msec(1), net(8),
                                       100000);
  EXPECT_EQ(r.schedule.size(), 6u);
  EXPECT_EQ(r.stats.backtracks, 0u);
}

TEST(SearchEngineTest, FeasibleScheduleRespectsDeadlinesWhenSimulated) {
  // Property: simulate the returned schedule's end offsets; every task ends
  // by its deadline when delivered at the planned delivery time.
  Xoshiro256ss rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    constexpr std::uint32_t m = 4;
    std::vector<Task> batch;
    for (std::uint32_t i = 0; i < 25; ++i) {
      Task t;
      t.id = i;
      t.processing = rng.uniform_duration(usec(200), msec(4));
      t.deadline =
          SimTime::zero() + rng.uniform_duration(msec(2), msec(40));
      for (std::uint32_t k = 0; k < m; ++k) {
        if (rng.bernoulli(0.4)) t.affinity.add(k);
      }
      if (t.affinity.empty()) t.affinity.add(i % m);
      batch.push_back(t);
    }
    const SimTime delivery = SimTime::zero() + msec(2);
    const auto nw = net(m, msec(3));
    const auto r = SearchEngine(rt_sads_config())
                       .run(batch, std::vector<SimDuration>(m, SimDuration{}), delivery,
                            nw, 5000);
    std::vector<SimTime> horizon(m, delivery);
    for (const Assignment& a : r.schedule) {
      const Task& t = batch[a.task_index];
      horizon[a.worker] += t.processing + nw.comm_cost(t.affinity, a.worker);
      ASSERT_LE(horizon[a.worker], t.deadline)
          << "trial " << trial << " task " << t.id;
    }
  }
}

TEST(SearchEngineTest, DColsSchedulesAcrossProcessorsRoundRobin) {
  // Sequence-oriented: the k-th assignment lands on processor k mod m.
  std::vector<Task> batch;
  for (std::uint32_t i = 0; i < 9; ++i) {
    batch.push_back(make_task(i, msec(1), SimTime::zero() + msec(100),
                              AffinitySet::all(3)));
  }
  const auto r = SearchEngine(d_cols_config())
                     .run(batch, std::vector<SimDuration>(3, SimDuration{}),
                          SimTime::zero() + msec(1), net(3), 100000);
  ASSERT_EQ(r.schedule.size(), 9u);
  for (std::size_t i = 0; i < r.schedule.size(); ++i) {
    EXPECT_EQ(r.schedule[i].worker, i % 3);
  }
}

TEST(SearchEngineTest, StrictDColsDeadEndsWhenLevelProcessorUnusable) {
  // Two tasks, both only feasible on worker 0 (remote cost blows their
  // deadline). Strict sequence-oriented search must put SOME task on
  // worker 1 at level 1 and dead-ends after scheduling just one task;
  // assignment-oriented schedules both on worker 0.
  std::vector<Task> batch;
  batch.push_back(
      make_task(0, msec(2), SimTime::zero() + msec(10), AffinitySet::single(0)));
  batch.push_back(
      make_task(1, msec(2), SimTime::zero() + msec(10), AffinitySet::single(0)));
  const auto nw = net(2, msec(50));
  SearchConfig strict = d_cols_config();
  strict.skip_saturated_processors = false;
  const auto seq = SearchEngine(strict).run(
      batch, std::vector<SimDuration>(2, SimDuration{}),
      SimTime::zero() + msec(1), nw, 100000);
  EXPECT_EQ(seq.schedule.size(), 1u);
  EXPECT_TRUE(seq.stats.dead_end);

  const auto asg = SearchEngine(rt_sads_config())
                       .run(batch, std::vector<SimDuration>(2, SimDuration{}),
                            SimTime::zero() + msec(1), nw, 100000);
  EXPECT_EQ(asg.schedule.size(), 2u);
  for (const Assignment& a : asg.schedule) EXPECT_EQ(a.worker, 0u);
}

TEST(SearchEngineTest, DColsSkipsSaturatedProcessorByDefault) {
  // Same instance: with processor skipping (default) the sequence-oriented
  // search rotates past the unusable worker 1 and schedules both tasks.
  std::vector<Task> batch;
  batch.push_back(
      make_task(0, msec(2), SimTime::zero() + msec(10), AffinitySet::single(0)));
  batch.push_back(
      make_task(1, msec(2), SimTime::zero() + msec(10), AffinitySet::single(0)));
  const auto nw = net(2, msec(50));
  const auto seq = SearchEngine(d_cols_config())
                       .run(batch, std::vector<SimDuration>(2, SimDuration{}),
                            SimTime::zero() + msec(1), nw, 100000);
  ASSERT_EQ(seq.schedule.size(), 2u);
  for (const Assignment& a : seq.schedule) EXPECT_EQ(a.worker, 0u);
  EXPECT_TRUE(seq.stats.reached_leaf);
}

TEST(SearchEngineTest, DeterministicAcrossRuns) {
  Xoshiro256ss rng(21);
  std::vector<Task> batch;
  for (std::uint32_t i = 0; i < 15; ++i) {
    Task t;
    t.id = i;
    t.processing = rng.uniform_duration(usec(100), msec(2));
    t.deadline = SimTime::zero() + rng.uniform_duration(msec(5), msec(30));
    t.affinity.add(i % 4);
    batch.push_back(t);
  }
  const SearchEngine engine(rt_sads_config());
  const auto a = engine.run(batch, std::vector<SimDuration>(4, SimDuration{}),
                            SimTime::zero() + msec(1), net(4), 500);
  const auto b = engine.run(batch, std::vector<SimDuration>(4, SimDuration{}),
                            SimTime::zero() + msec(1), net(4), 500);
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    EXPECT_EQ(a.schedule[i].task_index, b.schedule[i].task_index);
    EXPECT_EQ(a.schedule[i].worker, b.schedule[i].worker);
  }
  EXPECT_EQ(a.stats.vertices_generated, b.stats.vertices_generated);
}

}  // namespace
}  // namespace rtds::search
