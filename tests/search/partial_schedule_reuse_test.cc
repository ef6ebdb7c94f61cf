// PartialSchedule::reset() must leave a reused schedule indistinguishable
// from a freshly constructed one: the search keeps one schedule per thread
// and resets it every phase, so any state that survives a reset would leak
// from one phase's set into the next. Back-to-back equivalence runs only
// hit most of these cases by chance; this file drives them on purpose:
//   * assignments of a set kept in EDF order, read by assigned() and push()
//     when the next set keeps arrival order;
//   * the unassigned bitset's tail word when the batch shrinks to a whole
//     number of words and grows past it again (70 -> 64 -> 65 tasks);
//   * has_gangs_ after a batch with gangs, which gates the task-mask kernel;
//   * gang_undo_ and the path of the previous run, which must not pile up.
#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "search/engine.h"
#include "search/partial_schedule.h"
#include "tasks/batch.h"

namespace rtds::search {
namespace {

std::vector<Task> make_batch(std::uint32_t n, std::uint32_t m, bool gangs,
                             std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<Task> batch(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Task& t = batch[i];
    t.id = i;
    t.processing = rng.uniform_duration(usec(100), msec(3));
    t.deadline = SimTime::zero() + rng.uniform_duration(msec(2), msec(40));
    if (rng.bernoulli(0.2)) {
      t.earliest_start = SimTime::zero() + rng.uniform_duration(msec(1), msec(5));
    }
    t.affinity.add(static_cast<tasks::ProcessorId>(rng.uniform_int(0, m - 1)));
    if (gangs && i % 5 == 0) t.workers_required = 2 + i % 2;
  }
  return batch;
}

std::vector<SimDuration> make_loads(std::uint32_t m, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<SimDuration> loads(m);
  for (SimDuration& d : loads) d = rng.uniform_duration(usec(0), msec(2));
  return loads;
}

void expect_same_assignment(const Assignment& got, const Assignment& want) {
  EXPECT_EQ(got.task_index, want.task_index);
  EXPECT_EQ(got.worker, want.worker);
  EXPECT_EQ(got.exec_cost, want.exec_cost);
  EXPECT_EQ(got.prev_ce, want.prev_ce);
  EXPECT_EQ(got.prev_max_ce, want.prev_max_ce);
  EXPECT_EQ(got.start_offset, want.start_offset);
  EXPECT_EQ(got.end_offset, want.end_offset);
}

/// Every observable of `got` equals that of `want`: queue offsets, the
/// bitset scan, per-task verdicts of evaluate(), and the task-word kernel.
void expect_same_state(const PartialSchedule& got, const PartialSchedule& want,
                       std::uint32_t m) {
  ASSERT_EQ(got.batch_size(), want.batch_size());
  ASSERT_EQ(got.depth(), want.depth());
  EXPECT_EQ(got.max_ce(), want.max_ce());
  EXPECT_EQ(got.min_ce(), want.min_ce());
  for (std::uint32_t k = 0; k < m; ++k) EXPECT_EQ(got.ce(k), want.ce(k));
  EXPECT_EQ(got.has_gangs(), want.has_gangs());
  EXPECT_EQ(got.tasks_mask_eligible(), want.tasks_mask_eligible());
  EXPECT_EQ(got.unassigned_words(), want.unassigned_words());

  const std::uint32_t n = want.batch_size();
  for (std::uint32_t pos = 0; pos <= n; ++pos) {
    ASSERT_EQ(got.first_unassigned_at_or_after(pos),
              want.first_unassigned_at_or_after(pos))
        << "pos " << pos;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    ASSERT_EQ(got.assigned(i), want.assigned(i)) << "task " << i;
    if (want.assigned(i)) continue;
    for (std::uint32_t k = 0; k < m; ++k) {
      const std::optional<Assignment> g = got.evaluate(i, k);
      const std::optional<Assignment> w = want.evaluate(i, k);
      ASSERT_EQ(g.has_value(), w.has_value()) << "task " << i << " on " << k;
      if (w) expect_same_assignment(*g, *w);
    }
  }
  if (!want.tasks_mask_eligible()) return;
  for (std::size_t w = 0; w < want.unassigned_words().size(); ++w) {
    for (std::uint32_t k = 0; k < m; ++k) {
      EXPECT_EQ(got.feasible_tasks_mask(k, w), want.feasible_tasks_mask(k, w))
          << "word " << w << " worker " << k;
    }
  }
}

/// Pushes the first feasible placement of up to `steps` tasks, in
/// position (consideration) order, onto both schedules.
void push_both(PartialSchedule& got, PartialSchedule& want, std::uint32_t m,
               std::uint32_t steps) {
  const std::uint32_t n = want.batch_size();
  std::uint32_t pushed = 0;
  for (std::uint32_t pos = want.first_unassigned_at_or_after(0);
       pos < n && pushed < steps;
       pos = want.first_unassigned_at_or_after(pos + 1)) {
    const std::uint32_t task = pos;
    for (std::uint32_t k = 0; k < m; ++k) {
      const std::optional<Assignment> w = want.evaluate(task, k);
      if (!w) continue;
      const std::optional<Assignment> g = got.evaluate(task, k);
      ASSERT_TRUE(g.has_value());
      expect_same_assignment(*g, *w);
      want.push(*w);
      got.push(*g);
      ++pushed;
      break;
    }
  }
}

struct Step {
  std::uint32_t n;
  std::uint32_t m;
  bool edf;
  bool gangs;
  bool mesh;
};

TEST(PartialScheduleReuseTest, ResetMatchesFreshAcrossShrinkingAndGrowingBatches) {
  // Sizes 1000 -> 1 -> 70 -> 64 -> 65 -> 1000, alternating identity and EDF
  // orders, gangs on and off, and a change of worker count and routing.
  const std::vector<Step> steps{
      {1000, 6, true, true, false}, {1, 6, false, false, false},
      {70, 4, true, true, true},    {64, 4, false, false, false},
      {65, 6, true, false, false},  {1000, 6, false, true, false},
  };
  std::optional<PartialSchedule> reused;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const Step& step = steps[s];
    SCOPED_TRACE(::testing::Message() << "step " << s << ": n=" << step.n);
    const auto batch = make_batch(step.n, step.m, step.gangs, 100 + s);
    const auto loads = make_loads(step.m, 200 + s);
    const auto net = step.mesh ? machine::Interconnect::mesh(step.m, usec(300))
                               : machine::Interconnect::cut_through(step.m, usec(500));
    const SimTime delivery = SimTime::zero() + msec(1);
    const tasks::Batch set(batch, step.edf ? TaskOrder::kEarliestDeadline
                                           : TaskOrder::kBatchOrder);

    if (reused) {
      reused->reset(&set, loads, delivery, &net);
    } else {
      reused.emplace(&set, loads, delivery, &net);
    }
    PartialSchedule fresh(&set, loads, delivery, &net);
    expect_same_state(*reused, fresh, step.m);

    push_both(*reused, fresh, step.m, 24);
    expect_same_state(*reused, fresh, step.m);
    for (std::uint32_t i = 0; i < 24 / 2 && fresh.depth() > 0; ++i) {
      reused->pop();
      fresh.pop();
    }
    expect_same_state(*reused, fresh, step.m);
    // The reused schedule goes into the next reset with a non-empty path
    // (gangs included when the batch has them).
  }
}

TEST(PartialScheduleReuseTest, ResetDropsTheEdfPositionsOfThePreviousRun) {
  // Deadlines descend, so the EDF set holds the batch in reverse: task
  // kN-1 at position 0. A reset onto the same tasks in arrival order must
  // keep nothing of the assignment made at that position.
  constexpr std::uint32_t kN = 10;
  const auto net = machine::Interconnect::cut_through(2, usec(500));
  const std::vector<SimDuration> loads(2, SimDuration::zero());
  std::vector<Task> batch = make_batch(kN, 2, false, 7);
  for (std::uint32_t i = 0; i < kN; ++i) {
    batch[i].earliest_start = SimTime::zero();
    batch[i].deadline = SimTime::zero() + msec(100 - 5 * std::int64_t(i));
  }
  const tasks::Batch edf(batch, TaskOrder::kEarliestDeadline);
  ASSERT_EQ(edf.tasks().front().id, kN - 1);
  const tasks::Batch arrival(batch);

  PartialSchedule ps(&edf, loads, SimTime::zero(), &net);
  ps.push(*ps.evaluate(0, 0));
  ps.reset(&arrival, loads, SimTime::zero(), &net);

  for (std::uint32_t pos = 0; pos < kN; ++pos) {
    EXPECT_EQ(arrival.tasks()[pos].id, pos);
    EXPECT_FALSE(ps.assigned(pos));
  }
  ps.push(*ps.evaluate(0, 0));
  EXPECT_TRUE(ps.assigned(0));
  EXPECT_FALSE(ps.assigned(kN - 1));
  EXPECT_EQ(ps.first_unassigned_at_or_after(0), 1u);
}

TEST(PartialScheduleReuseTest, ResetClearsTheUnassignedTailWord) {
  const auto net = machine::Interconnect::cut_through(2, usec(500));
  const std::vector<SimDuration> loads(2, SimDuration::zero());
  const tasks::Batch b70(make_batch(70, 2, false, 1));
  const tasks::Batch b64(make_batch(64, 2, false, 2));
  auto tasks65 = make_batch(65, 2, false, 3);
  tasks65[64].earliest_start = SimTime::zero();
  tasks65[64].deadline = SimTime::zero() + msec(100);  // placeable below
  const tasks::Batch b65(tasks65);

  PartialSchedule ps(&b70, loads, SimTime::zero(), &net);
  ps.reset(&b64, loads, SimTime::zero(), &net);
  EXPECT_EQ(ps.unassigned_words(), std::vector<std::uint64_t>{~std::uint64_t{0}});
  EXPECT_EQ(ps.first_unassigned_at_or_after(63), 63u);
  ps.reset(&b65, loads, SimTime::zero(), &net);
  const std::vector<std::uint64_t> want{~std::uint64_t{0}, 1};
  EXPECT_EQ(ps.unassigned_words(), want);
  EXPECT_EQ(ps.first_unassigned_at_or_after(64), 64u);
  ps.push(*ps.evaluate(64, 0));
  EXPECT_EQ(ps.first_unassigned_at_or_after(64), 65u);  // == batch_size()
}

TEST(PartialScheduleReuseTest, ResetFromAGangBatchReenablesTheTaskMask) {
  const auto net = machine::Interconnect::cut_through(4, usec(500));
  const std::vector<SimDuration> loads(4, SimDuration::zero());
  const tasks::Batch gangs(make_batch(20, 4, true, 4));
  const tasks::Batch plain(make_batch(20, 4, false, 5));

  PartialSchedule ps(&gangs, loads, SimTime::zero(), &net);
  ASSERT_TRUE(ps.has_gangs());
  EXPECT_FALSE(ps.tasks_mask_eligible());
  ps.reset(&plain, loads, SimTime::zero(), &net);
  EXPECT_FALSE(ps.has_gangs());
  EXPECT_TRUE(ps.tasks_mask_eligible());
}

TEST(PartialScheduleReuseTest, RepeatedResetsDoNotAccumulatePathOrGangUndo) {
  // Every cycle leaves gangs on the path before the next reset. Whatever a
  // reset forgot to clear would pile up cycle after cycle.
  const auto net = machine::Interconnect::cut_through(4, usec(500));
  const std::vector<SimDuration> loads(4, SimDuration::zero());
  std::vector<Task> batch = make_batch(30, 4, true, 6);
  for (Task& t : batch) {
    t.earliest_start = SimTime::zero();
    t.deadline = SimTime::zero() + msec(1000);  // everything fits
  }
  const tasks::Batch set(batch);
  PartialSchedule ps(&set, loads, SimTime::zero(), &net);
  std::size_t footprint = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    ps.reset(&set, loads, SimTime::zero(), &net);
    ASSERT_EQ(ps.depth(), 0u);
    for (std::uint32_t k = 0; k < 4; ++k) ASSERT_EQ(ps.ce(k), SimDuration::zero());
    for (std::uint32_t i = 0; i < batch.size(); i += 5) {  // the gangs
      ps.push(*ps.evaluate(i, 0));
    }
    if (cycle == 0) footprint = ps.footprint_bytes();
    ASSERT_EQ(ps.footprint_bytes(), footprint) << "cycle " << cycle;
  }
}

}  // namespace
}  // namespace rtds::search
