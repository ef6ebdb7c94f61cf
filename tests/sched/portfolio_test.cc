// PartitionScheduler (the `packing` and `multicrit` registry entrants):
// placement behavior of the fit matrix, budget accounting, and the
// correction-theorem feasibility of every emitted assignment.
#include "sched/portfolio.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

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

SearchResult run(PartitionConfig config, const std::vector<Task>& batch,
                 std::uint32_t m, std::uint64_t budget = 100000) {
  const auto net = machine::Interconnect::cut_through(m, msec(2));
  return PartitionScheduler("test", config)
      .schedule_phase(batch, std::vector<SimDuration>(m, SimDuration{}),
                      SimTime::zero() + msec(1), net, budget);
}

std::vector<int> per_worker_counts(const SearchResult& r, std::uint32_t m) {
  std::vector<int> counts(m, 0);
  for (const Assignment& a : r.schedule) ++counts[a.worker];
  return counts;
}

TEST(PartitionTest, FirstFitPilesOnFirstFeasibleWorker) {
  const auto batch = uniform_batch(8, 4, msec(2), msec(100));
  const auto r = run({PartitionSort::kDeadline, PartitionFit::kFirstFit},
                     batch, 4);
  ASSERT_EQ(r.schedule.size(), 8u);
  for (const Assignment& a : r.schedule) EXPECT_EQ(a.worker, 0u);
}

TEST(PartitionTest, BestFitAndWorstFitSpreadIdenticalTasks) {
  const auto batch = uniform_batch(8, 4, msec(2), msec(100));
  for (const PartitionFit fit :
       {PartitionFit::kBestFit, PartitionFit::kWorstFit}) {
    const auto r = run({PartitionSort::kDeadline, fit}, batch, 4);
    ASSERT_EQ(r.schedule.size(), 8u) << int(fit);
    for (int c : per_worker_counts(r, 4)) EXPECT_EQ(c, 2) << int(fit);
  }
}

/// Worker of each task of `batch` in `r` (by batch index); m when unplaced.
std::vector<std::uint32_t> workers_of(const SearchResult& r,
                                      const std::vector<Task>& batch,
                                      std::uint32_t m) {
  std::vector<std::uint32_t> worker(batch.size(), m);
  for (const Assignment& a : r.schedule) worker[a.task_index] = a.worker;
  return worker;
}

TEST(PartitionTest, BestFitTakesTheEarliestEndAndWorstFitTheLeastLoad) {
  // Base loads 0/5/2 ms and a 10 ms transfer to any worker but the data
  // holder, P1. T0 ends at 12/7/14 ms: best fit takes P1, where it ends
  // first; worst fit takes P0, the least-loaded worker. T1 then sees the
  // packed loads: best fit keeps it on P1 (8 ms vs 11 and 13), worst fit
  // puts it on P2, least loaded now that T0 holds P0 until 12 ms.
  const std::uint32_t m = 3;
  const auto net = machine::Interconnect::cut_through(m, msec(10));
  const std::vector<Task> batch{
      make_task(0, msec(2), SimTime::zero() + msec(100),
                AffinitySet::single(1)),
      make_task(1, msec(1), SimTime::zero() + msec(101),
                AffinitySet::single(1))};
  const std::vector<SimDuration> loads{msec(0), msec(5), msec(2)};
  const auto place = [&](PartitionFit fit) {
    const SearchResult r =
        PartitionScheduler("test", {PartitionSort::kDeadline, fit})
            .schedule_phase(batch, loads, SimTime::zero() + msec(1), net,
                            100000);
    return workers_of(r, batch, m);
  };
  EXPECT_EQ(place(PartitionFit::kBestFit), (std::vector<std::uint32_t>{1, 1}));
  EXPECT_EQ(place(PartitionFit::kWorstFit),
            (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(place(PartitionFit::kFirstFit),
            (std::vector<std::uint32_t>{0, 0}));
}

TEST(PartitionTest, GangLeadsFollowTheBlockRule) {
  // A 2-worker gang on 4 workers with base loads 1/6/2/0 ms: leads 0, 1
  // and 2 are blocks [k, k+2), and lead 3 runs past the machine. The block
  // starts at its max load, so best fit takes lead 2 (ends at 7 ms, vs 11
  // on leads 0 and 1). Worst fit compares the lead's own load and takes
  // lead 0 (1 ms); lead 3's 0 ms is no placement. The gang's end charges
  // its whole block: after best fit, P3 is busy until 7 ms, so T1, whose
  // data is on P3, ends first on P0 (1 + 1 + 4 ms) rather than on P3
  // (8 ms).
  const std::uint32_t m = 4;
  const auto net = machine::Interconnect::cut_through(m, msec(4));
  Task gang = make_task(0, msec(5), SimTime::zero() + msec(50),
                        AffinitySet::all(m));
  gang.workers_required = 2;
  const std::vector<Task> batch{
      gang, make_task(1, msec(1), SimTime::zero() + msec(60),
                      AffinitySet::single(3))};
  const std::vector<SimDuration> loads{msec(1), msec(6), msec(2), msec(0)};
  const auto place = [&](PartitionFit fit) {
    const SearchResult r =
        PartitionScheduler("test", {PartitionSort::kDeadline, fit})
            .schedule_phase(batch, loads, SimTime::zero() + msec(1), net,
                            100000);
    return workers_of(r, batch, m);
  };
  EXPECT_EQ(place(PartitionFit::kBestFit), (std::vector<std::uint32_t>{2, 0}));
  EXPECT_EQ(place(PartitionFit::kWorstFit),
            (std::vector<std::uint32_t>{0, 3}));
}

TEST(PartitionTest, NextFitRotatesTheCursor) {
  const auto batch = uniform_batch(8, 4, msec(2), msec(100));
  const auto r = run({PartitionSort::kDeadline, PartitionFit::kNextFit},
                     batch, 4);
  ASSERT_EQ(r.schedule.size(), 8u);
  // The cursor advances past every successful placement, so identical
  // feasible-everywhere tasks land round-robin: two per worker.
  for (int c : per_worker_counts(r, 4)) EXPECT_EQ(c, 2);
}

TEST(PartitionTest, LptLetsTheLongTaskSurviveTightCapacity) {
  // One worker, 8ms of capacity (deadline 9ms, delivery 1ms), a 1ms and an
  // 8ms task. Whichever is packed first consumes the capacity: LPT packs
  // the long task and keeps it; EDF order (equal deadlines, index
  // tie-break) packs the short one first and the long task never fits.
  std::vector<Task> batch;
  batch.push_back(
      make_task(0, msec(1), SimTime::zero() + msec(9), AffinitySet::all(1)));
  batch.push_back(
      make_task(1, msec(8), SimTime::zero() + msec(9), AffinitySet::all(1)));
  const auto net = machine::Interconnect::cut_through(1, msec(1));
  const auto schedule_with = [&](PartitionSort sort) {
    return PartitionScheduler("test", {sort, PartitionFit::kFirstFit})
        .schedule_phase(batch, {SimDuration{}}, SimTime::zero() + msec(1),
                        net, 100000);
  };
  const auto lpt = schedule_with(PartitionSort::kLpt);
  ASSERT_EQ(lpt.schedule.size(), 1u);
  EXPECT_EQ(batch[lpt.schedule.front().task_index].id, 1u);
  const auto edf = schedule_with(PartitionSort::kDeadline);
  ASSERT_EQ(edf.schedule.size(), 1u);
  EXPECT_EQ(batch[edf.schedule.front().task_index].id, 0u);

  // A start-time constraint moves the slack and density keys. T1 may not
  // start before 5ms: its slack at the 1ms delivery is 9 - 5 - 3 = 1ms
  // (5ms if the constraint were ignored) against T0's 10 - 1 - 5.5 =
  // 3.5ms, and its density 3 / (9 - 5) = 0.75 (3/8 ignoring it) against
  // T0's 5.5 / 9. Either task packed first leaves no room for the other,
  // so min-slack, density and EDF keep T1, and LPT keeps T0.
  batch.clear();
  batch.push_back(make_task(0, usec(5500), SimTime::zero() + msec(10),
                            AffinitySet::all(1)));
  batch.push_back(
      make_task(1, msec(3), SimTime::zero() + msec(9), AffinitySet::all(1)));
  batch[1].earliest_start = SimTime::zero() + msec(5);
  for (const auto& [sort, kept] :
       {std::pair{PartitionSort::kMinSlack, 1u},
        std::pair{PartitionSort::kDensity, 1u},
        std::pair{PartitionSort::kDeadline, 1u},
        std::pair{PartitionSort::kLpt, 0u}}) {
    const auto r = schedule_with(sort);
    ASSERT_EQ(r.schedule.size(), 1u) << int(sort);
    EXPECT_EQ(batch[r.schedule.front().task_index].id, kept) << int(sort);
  }
}

TEST(PartitionTest, HonorsAffinityUnderExpensiveComm) {
  const std::uint32_t m = 4;
  // Comm cost larger than any laxity: only affine placement is feasible.
  const auto net = machine::Interconnect::cut_through(m, sec(10));
  std::vector<Task> batch;
  for (std::uint32_t i = 0; i < 8; ++i) {
    batch.push_back(make_task(i, msec(2), SimTime::zero() + msec(100),
                              AffinitySet::single(i % m)));
  }
  for (const PartitionFit fit :
       {PartitionFit::kFirstFit, PartitionFit::kBestFit,
        PartitionFit::kWorstFit, PartitionFit::kNextFit}) {
    const auto r =
        PartitionScheduler("test", {PartitionSort::kDeadline, fit})
            .schedule_phase(batch, std::vector<SimDuration>(m, SimDuration{}),
                            SimTime::zero() + msec(1), net, 100000);
    ASSERT_EQ(r.schedule.size(), 8u) << int(fit);
    for (const Assignment& a : r.schedule) {
      EXPECT_EQ(a.worker, batch[a.task_index].id % m) << int(fit);
    }
  }
}

TEST(PartitionTest, SkipsInfeasibleTasksWithoutDeadEnding) {
  const std::uint32_t m = 2;
  std::vector<Task> batch;
  batch.push_back(make_task(0, msec(1), SimTime::zero() + msec(100),
                            AffinitySet::all(m)));
  // Deadline before delivery: unplaceable, must be skipped, not scheduled.
  batch.push_back(
      make_task(1, msec(1), SimTime::zero() + usec(1), AffinitySet::all(m)));
  batch.push_back(make_task(2, msec(1), SimTime::zero() + msec(100),
                            AffinitySet::all(m)));
  const auto r = run({PartitionSort::kDeadline, PartitionFit::kBestFit},
                     batch, m);
  std::set<std::uint32_t> ids;
  for (const Assignment& a : r.schedule) ids.insert(batch[a.task_index].id);
  EXPECT_EQ(ids.count(1u), 0u);
  EXPECT_EQ(ids.size(), 2u);
  EXPECT_FALSE(r.stats.dead_end);
}

TEST(PartitionTest, RespectsVertexBudget) {
  const auto batch = uniform_batch(50, 4, msec(1), msec(500));
  for (const PartitionFit fit :
       {PartitionFit::kFirstFit, PartitionFit::kBestFit,
        PartitionFit::kWorstFit, PartitionFit::kNextFit}) {
    const auto r = run({PartitionSort::kDeadline, fit}, batch, 4, 20);
    EXPECT_LE(r.stats.vertices_generated, 20u) << int(fit);
    EXPECT_TRUE(r.stats.budget_exhausted) << int(fit);
    EXPECT_LT(r.schedule.size(), 50u) << int(fit);
  }
}

TEST(PartitionTest, SequencesEachWorkerShareByEdf) {
  Xoshiro256ss rng(11);
  const std::uint32_t m = 3;
  std::vector<Task> batch;
  for (std::uint32_t i = 0; i < 24; ++i) {
    batch.push_back(make_task(
        i, rng.uniform_duration(usec(100), msec(2)),
        SimTime::zero() + rng.uniform_duration(msec(5), msec(60)),
        AffinitySet::all(m)));
  }
  const auto r = run({PartitionSort::kLpt, PartitionFit::kBestFit}, batch, m);
  // Commits are grouped by worker, and within a worker deadlines are
  // non-decreasing (pass 2's EDF sequencing).
  std::vector<SimTime> last_deadline(m, SimTime::zero());
  for (const Assignment& a : r.schedule) {
    const SimTime d = batch[a.task_index].deadline;
    EXPECT_GE(d, last_deadline[a.worker]);
    last_deadline[a.worker] = d;
  }
}

TEST(PartitionTest, ProducesOnlyFeasibleSchedules) {
  // The correction-theorem precondition: every emitted assignment finishes
  // by its deadline when each worker consumes its share in commit order —
  // across the whole sort x fit matrix, on adversarial random batches.
  Xoshiro256ss rng(3);
  const std::uint32_t m = 4;
  const auto net = machine::Interconnect::cut_through(m, msec(3));
  for (const PartitionSort sort :
       {PartitionSort::kDensity, PartitionSort::kDeadline,
        PartitionSort::kMinSlack, PartitionSort::kLpt}) {
    for (const PartitionFit fit :
         {PartitionFit::kFirstFit, PartitionFit::kBestFit,
          PartitionFit::kWorstFit, PartitionFit::kNextFit}) {
      for (int trial = 0; trial < 5; ++trial) {
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
        const auto r =
            PartitionScheduler("test", {sort, fit})
                .schedule_phase(batch,
                                std::vector<SimDuration>(m, SimDuration{}),
                                delivery, net, 10000);
        std::vector<SimTime> horizon(m, delivery);
        for (const Assignment& a : r.schedule) {
          const Task& t = batch[a.task_index];
          horizon[a.worker] +=
              t.processing + net.comm_cost(t.affinity, a.worker);
          ASSERT_LE(horizon[a.worker], t.deadline)
              << "sort " << int(sort) << " fit " << int(fit);
        }
      }
    }
  }
}

TEST(PartitionTest, RegistryInstanceMatchesDirectConstruction) {
  const auto batch = uniform_batch(12, 4, msec(2), msec(80));
  const auto via_registry =
      AlgorithmRegistry::builtin().make("multicrit?sort=lpt&fit=best");
  const auto direct = PartitionScheduler(
      "direct", {PartitionSort::kLpt, PartitionFit::kBestFit});
  const auto net = machine::Interconnect::cut_through(4, msec(2));
  const std::vector<SimDuration> loads(4, SimDuration{});
  const SimTime delivery = SimTime::zero() + msec(1);
  const auto a = via_registry->schedule_phase(batch, loads, delivery, net,
                                              100000);
  const auto b = direct.schedule_phase(batch, loads, delivery, net, 100000);
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    EXPECT_EQ(a.schedule[i].task_index, b.schedule[i].task_index);
    EXPECT_EQ(a.schedule[i].worker, b.schedule[i].worker);
  }
  EXPECT_EQ(a.stats.vertices_generated, b.stats.vertices_generated);
}

}  // namespace
}  // namespace rtds::sched
