#include "tasks/batch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "search/engine.h"

namespace rtds::tasks {
namespace {

Task make_task(TaskId id, SimDuration p, SimTime d) {
  Task t;
  t.id = id;
  t.processing = p;
  t.deadline = d;
  t.affinity.add(0);
  return t;
}

TEST(BatchTest, StartsEmpty) {
  Batch b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_THROW(static_cast<void>(b.min_slack(SimTime::zero())), InvalidArgument);
}

TEST(BatchTest, MergePreservesOrder) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(1), SimTime{100000}),
                    make_task(2, msec(1), SimTime{100000})});
  b.merge_arrivals({make_task(3, msec(1), SimTime{100000})});
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b.tasks()[0].id, 1u);
  EXPECT_EQ(b.tasks()[1].id, 2u);
  EXPECT_EQ(b.tasks()[2].id, 3u);
}

TEST(BatchTest, RemoveScheduledDropsOnlyListed) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(1), SimTime{100000}),
                    make_task(2, msec(1), SimTime{100000}),
                    make_task(3, msec(1), SimTime{100000})});
  b.remove_scheduled({0, 2});  // positions of ids 1 and 3
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.tasks()[0].id, 2u);
  // An empty list removes nothing.
  b.remove_scheduled({});
  EXPECT_EQ(b.size(), 1u);
}

TEST(BatchTest, RemovedIdsCanReappearAsNewTasks) {
  // The batch keeps no record of the tasks that left it (the pipeline
  // never reuses ids; its ledger rejects a repeat before any merge).
  Batch b;
  b.merge_arrivals({make_task(1, msec(1), SimTime{100000})});
  b.remove_scheduled({0});
  EXPECT_TRUE(b.empty());
  b.merge_arrivals({make_task(1, msec(2), SimTime{100000})});
  EXPECT_EQ(b.size(), 1u);
}

TEST(BatchTest, CullMissedRemovesUnreachable) {
  Batch b;
  // Task 1 reachable at t=0; task 2 unreachable (p=5ms, d=2ms).
  b.merge_arrivals({make_task(1, msec(1), SimTime::zero() + msec(10)),
                    make_task(2, msec(5), SimTime::zero() + msec(2))});
  std::vector<TaskId> culled;
  b.cull_missed(SimTime::zero(), culled);
  ASSERT_EQ(culled.size(), 1u);
  EXPECT_EQ(culled[0], 2u);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.tasks()[0].id, 1u);
}

TEST(BatchTest, CullMissedIsTimeSensitive) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(2), SimTime::zero() + msec(10))});
  std::vector<TaskId> culled;
  b.cull_missed(SimTime::zero() + msec(8), culled);
  EXPECT_TRUE(culled.empty());
  b.cull_missed(SimTime::zero() + msec(9), culled);
  EXPECT_EQ(culled.size(), 1u);
  EXPECT_TRUE(b.empty());
}

TEST(BatchTest, CulledTaskIdIsReleased) {
  Batch b;
  b.merge_arrivals({make_task(7, msec(5), SimTime::zero() + msec(1))});
  std::vector<TaskId> culled;
  b.cull_missed(SimTime::zero(), culled);
  EXPECT_EQ(culled.size(), 1u);
  b.merge_arrivals({make_task(7, msec(1), SimTime::zero() + msec(100))});
  EXPECT_EQ(b.size(), 1u);
}

TEST(BatchTest, CullMissedCompactsInOrderAndOverwritesCulled) {
  // Survivors keep their relative order, the culled tasks come back in
  // batch order, and the out-vector is overwritten (not appended to) so
  // one vector can serve every phase. At t=0: ids 2, 3 and 5 are
  // unreachable (p > d); 1, 4 and 6 survive.
  Batch b;
  b.merge_arrivals({make_task(1, msec(1), SimTime::zero() + msec(50)),
                    make_task(2, msec(5), SimTime::zero() + msec(2)),
                    make_task(3, msec(9), SimTime::zero() + msec(1)),
                    make_task(4, msec(1), SimTime::zero() + msec(40)),
                    make_task(5, msec(3), SimTime::zero() + msec(2)),
                    make_task(6, msec(2), SimTime::zero() + msec(30))});
  std::vector<TaskId> culled{99};  // stale
  b.cull_missed(SimTime::zero(), culled);
  ASSERT_EQ(culled.size(), 3u);
  EXPECT_EQ(culled[0], 2u);
  EXPECT_EQ(culled[1], 3u);
  EXPECT_EQ(culled[2], 5u);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b.tasks()[0].id, 1u);
  EXPECT_EQ(b.tasks()[1].id, 4u);
  EXPECT_EQ(b.tasks()[2].id, 6u);
  // Nothing left to cull: the out-vector is emptied.
  b.cull_missed(SimTime::zero(), culled);
  EXPECT_TRUE(culled.empty());
  EXPECT_EQ(b.size(), 3u);
}

TEST(BatchTest, CullMissedReturnsMinSlackOfTheSurvivors) {
  // At t=0 slacks are 18, -3 (culled), 4 and 29 ms: the culled task's
  // negative slack must not leak into the result, which equals min_slack()
  // of what remains.
  Batch b;
  b.merge_arrivals({make_task(1, msec(2), SimTime::zero() + msec(20)),
                    make_task(2, msec(5), SimTime::zero() + msec(2)),
                    make_task(3, msec(5), SimTime::zero() + msec(9)),
                    make_task(4, msec(1), SimTime::zero() + msec(30))});
  std::vector<TaskId> culled;
  EXPECT_EQ(b.cull_missed(SimTime::zero(), culled), msec(4));
  EXPECT_EQ(b.min_slack(SimTime::zero()), msec(4));
  ASSERT_EQ(culled.size(), 1u);
  EXPECT_EQ(culled[0], 2u);
  // Nothing culled: the survivors' minimum, the batch untouched.
  EXPECT_EQ(b.cull_missed(SimTime::zero() + msec(2), culled), msec(2));
  EXPECT_TRUE(culled.empty());
  EXPECT_EQ(b.size(), 3u);
  // Everything culled: no survivor, no slack.
  EXPECT_EQ(b.cull_missed(SimTime::zero() + msec(40), culled),
            SimDuration::max());
  EXPECT_EQ(culled.size(), 3u);
  EXPECT_TRUE(b.empty());
}

TEST(BatchTest, MinSlackFindsTightestTask) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(2), SimTime::zero() + msec(20)),
                    make_task(2, msec(5), SimTime::zero() + msec(9)),
                    make_task(3, msec(1), SimTime::zero() + msec(30))});
  // Slacks at t=0: 18ms, 4ms, 29ms.
  EXPECT_EQ(b.min_slack(SimTime::zero()), msec(4));
  // At t = 2ms: 16, 2, 27.
  EXPECT_EQ(b.min_slack(SimTime::zero() + msec(2)), msec(2));
}

TEST(BatchTest, ClearEmptiesEverything) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(2), SimTime{1000000})});
  b.clear();
  EXPECT_TRUE(b.empty());
}

TEST(BatchTest, RemoveScheduledByIndexKeepsOrderAndIndex) {
  // Interior, adjacent and last positions at once: the survivors keep
  // their order, and a later merge appends behind them.
  Batch b;
  std::vector<Task> all;
  for (TaskId id = 10; id < 20; ++id) {
    all.push_back(make_task(id, msec(1), SimTime{5000000}));
  }
  b.merge_arrivals(all);
  b.remove_scheduled({1, 4, 5, 9});
  const std::vector<TaskId> survivors{10, 12, 13, 16, 17, 18};
  ASSERT_EQ(b.size(), survivors.size());
  for (std::size_t i = 0; i < survivors.size(); ++i) {
    EXPECT_EQ(b.tasks()[i].id, survivors[i]);
  }
  b.merge_arrivals({make_task(20, msec(1), SimTime{5000000})});
  ASSERT_EQ(b.size(), survivors.size() + 1);
  EXPECT_EQ(b.tasks().back().id, 20u);
}

TEST(BatchTest, RemoveScheduledRejectsBadIndices) {
  // Positions must be ascending and in range; a bad list is refused
  // before anything is removed.
  Batch b;
  b.merge_arrivals({make_task(1, msec(1), SimTime{1000000}),
                    make_task(2, msec(1), SimTime{1000000})});
  EXPECT_THROW(b.remove_scheduled({0, 2}), InvalidArgument);  // past the end
  EXPECT_THROW(b.remove_scheduled({1, 0}), InvalidArgument);  // descending
  EXPECT_THROW(b.remove_scheduled({1, 1}), InvalidArgument);  // repeated
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.tasks()[0].id, 1u);
  EXPECT_EQ(b.tasks()[1].id, 2u);
}

/// A task whose deadline lies on a 2 ms grid and whose processing time is
/// 1-3 ms, so arrivals tie with each other and with pending tasks under
/// both sort keys; some gangs, some start offsets. A hopeless task's
/// deadline lies in the first 2.5 ms of the run, before or near its
/// processing time, so its min-slack key d - p can be negative.
Task tied_task(Xoshiro256ss& rng, TaskId id, SimTime now,
               bool hopeless = false) {
  Task t;
  t.id = id;
  t.arrival = now;
  t.processing = msec(rng.uniform_int(1, 3));
  t.deadline = hopeless ? SimTime::zero() + usec(rng.uniform_int(0, 2500))
                        : SimTime::zero() +
                              msec(2 * (now.us / 2000 + rng.uniform_int(2, 8)));
  if (rng.bernoulli(0.2)) {
    t.earliest_start = now + msec(rng.uniform_int(0, 4));
  }
  t.affinity.add(static_cast<ProcessorId>(rng.uniform_int(0, 3)));
  if (rng.bernoulli(0.2)) {
    t.workers_required = static_cast<std::uint32_t>(rng.uniform_int(2, 4));
  }
  return t;
}

/// The set against its specification: `model` holds the same tasks in
/// arrival order, and the set must be its stable sort by key.
void expect_matches_model(const Batch& set, const std::vector<Task>& model,
                          SimTime now) {
  const std::vector<Task> tasks(set.tasks().begin(), set.tasks().end());
  ASSERT_EQ(tasks.size(), model.size());
  const std::vector<std::uint32_t> order =
      search::task_consideration_order(model, set.order());
  bool gangs = false;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    ASSERT_EQ(tasks[i].id, model[order[i]].id) << "position " << i;
    const Task& t = tasks[i];
    if (i > 0 && consideration_key(tasks[i - 1], set.order()) ==
                     consideration_key(t, set.order())) {
      ASSERT_LT(set.sequence(i - 1), set.sequence(i)) << "position " << i;
    }
    gangs = gangs || t.workers_required > 1;
  }
  // The set is in its own consideration order: the spec sorts it to itself.
  const std::vector<std::uint32_t> own =
      search::task_consideration_order(tasks, set.order());
  for (std::uint32_t i = 0; i < own.size(); ++i) ASSERT_EQ(own[i], i);
  EXPECT_EQ(set.has_gangs(), gangs);
  if (!tasks.empty()) {
    SimDuration slack = SimDuration::max();
    for (const Task& t : model) slack = min_duration(slack, t.slack_at(now));
    EXPECT_EQ(set.min_slack(now), slack);
  }
}

/// How a removal of `removed` (ascending positions) from a set of `n`
/// tasks must move it: a removed prefix only advances the head; otherwise
/// the side of the removed positions with fewer survivors moves — those
/// before the last removal move up and the head advances, or those after
/// the first removal move down.
enum class Compaction { kNone, kHeadAdvance, kUp, kDown };
Compaction expected_compaction(const std::vector<std::uint32_t>& removed,
                               std::size_t n) {
  if (removed.empty() || removed.size() == n) return Compaction::kNone;
  if (removed.back() + 1 == removed.size()) return Compaction::kHeadAdvance;
  const std::size_t before = removed.back() + 1 - removed.size();
  const std::size_t after = n - removed.front() - removed.size();
  return before <= after ? Compaction::kUp : Compaction::kDown;
}

/// Counts of the upkeep paths a sequence of mutations reached.
struct Reached {
  std::uint64_t head_advances{0}, up{0}, down{0};
  std::uint64_t recentres{0}, recentred_growths{0};
  std::uint64_t radix_groups_with_ties{0}, radix_groups_negative{0};
  std::uint64_t bounded_culls{0};
};

/// Checks where the head went after removing `removed` from `n` tasks
/// whose range started at `head`, and counts the path taken.
void expect_compaction(const Batch& set,
                       const std::vector<std::uint32_t>& removed,
                       std::size_t n, std::size_t head, Reached& reached) {
  switch (expected_compaction(removed, n)) {
    case Compaction::kNone:
      if (set.empty()) {
        EXPECT_EQ(set.head(), 0u);
      }
      break;
    case Compaction::kHeadAdvance:
      EXPECT_EQ(set.head(), head + removed.size());
      ++reached.head_advances;
      break;
    case Compaction::kUp:
      EXPECT_EQ(set.head(), head + removed.size());
      ++reached.up;
      break;
    case Compaction::kDown:
      EXPECT_EQ(set.head(), head);
      ++reached.down;
      break;
  }
}

/// Whether the cull's bound ends its scan before the last of `pending`
/// (the set's tasks in position order) at time t: from position i on, the
/// slack is at least key_i - (p_max, in EDF order) - max(t, e_max), and the
/// scan stops once that reaches the smallest survivor slack found.
bool cull_stops_early(const std::vector<Task>& pending, TaskOrder order,
                      SimTime t, std::int64_t p_max, std::int64_t e_max) {
  if (order == TaskOrder::kBatchOrder) return false;
  const std::int64_t reach =
      std::max(t.us, e_max) +
      (order == TaskOrder::kEarliestDeadline ? p_max : 0);
  std::int64_t min_slack = SimDuration::max().us;
  for (const Task& task : pending) {
    if (min_slack != SimDuration::max().us &&
        consideration_key(task, order) - reach >= min_slack) {
      return true;
    }
    const std::int64_t s = task.slack_at(t).us;
    if (s >= 0) min_slack = std::min(min_slack, s);
  }
  return false;
}

TEST(BatchTest, OrderFollowsEveryMutation) {
  // Random merges (trickles, bursts and groups of 256 or more, which the
  // radix sort orders; equal keys; negative min-slack keys), culls,
  // retirements of scheduled tasks and refused deliveries left pending,
  // under every order a search keeps; after each step the set equals its
  // specification, and each removal moved the side the spec names.
  Xoshiro256ss rng(0x5E7);
  std::uint64_t merged = 0, culled_total = 0, retired = 0, kept = 0;
  Reached reached;
  for (const TaskOrder order : {TaskOrder::kEarliestDeadline,
                                TaskOrder::kMinSlack, TaskOrder::kBatchOrder}) {
    for (int sequence = 0; sequence < 30; ++sequence) {
      SCOPED_TRACE("order " + std::to_string(int(order)) + " sequence " +
                   std::to_string(sequence));
      Batch set(order);
      std::vector<Task> model;  // the same tasks, in arrival order
      std::vector<Task> arrived;
      std::vector<TaskId> culled;
      std::vector<std::uint32_t> positions;
      // The maxima of p and e since the set was last empty.
      std::int64_t p_max = 0, e_max = 0;
      TaskId next_id = 0;
      SimTime now = SimTime::zero();
      for (int step = 0; step < 80; ++step) {
        now += usec(rng.uniform_int(0, 1500));
        const std::vector<Task> before(set.tasks().begin(), set.tasks().end());
        const std::size_t head = set.head();
        switch (rng.uniform_int(0, 3)) {
          case 0: {  // arrivals: a trickle, a burst or a radix-sorted group
            arrived.clear();
            const bool group = rng.bernoulli(0.06);
            const auto n =
                group ? rng.uniform_int(256, 400)
                      : rng.uniform_int(0, rng.bernoulli(0.2) ? 40 : 4);
            bool negative = false;
            for (std::int64_t a = 0; a < n; ++a) {
              arrived.push_back(
                  tied_task(rng, next_id++, now, group && rng.bernoulli(0.1)));
              const Task& t = arrived.back();
              negative = negative || consideration_key(t, order) < 0;
              p_max = std::max(p_max, t.processing.us);
              e_max = std::max(e_max, t.earliest_start.us);
            }
            const std::size_t capacity = set.capacity();
            set.merge_arrivals(arrived);
            model.insert(model.end(), arrived.begin(), arrived.end());
            merged += arrived.size();
            // The range moves back to the front only for room, and the
            // storage grows only when that is not enough.
            if (set.capacity() > capacity) {
              EXPECT_GT(before.size() + arrived.size(), capacity);
            }
            if (head > 0 && set.head() == 0) {
              ++reached.recentres;
              if (set.capacity() > capacity) ++reached.recentred_growths;
            } else {
              EXPECT_EQ(set.head(), head);
            }
            if (group && order != TaskOrder::kBatchOrder) {
              std::vector<std::int64_t> keys;
              for (const Task& t : arrived) {
                keys.push_back(consideration_key(t, order));
              }
              std::sort(keys.begin(), keys.end());
              if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
                ++reached.radix_groups_with_ties;
              }
              if (negative && order == TaskOrder::kMinSlack) {
                ++reached.radix_groups_negative;
              }
            }
            break;
          }
          case 1: {  // the cull, with the survivors' Min_Slack
            SimDuration slack = SimDuration::max();
            for (const Task& t : model) {
              if (!t.deadline_unreachable(now)) {
                slack = min_duration(slack, t.slack_at(now));
              }
            }
            positions.clear();
            std::vector<TaskId> gone;  // in position order
            bool offsets = false, gangs = false;
            for (std::uint32_t i = 0; i < before.size(); ++i) {
              offsets = offsets || before[i].earliest_start > now;
              gangs = gangs || before[i].workers_required > 1;
              if (!before[i].deadline_unreachable(now)) continue;
              positions.push_back(i);
              gone.push_back(before[i].id);
            }
            if (offsets && gangs &&
                cull_stops_early(before, order, now, p_max, e_max)) {
              ++reached.bounded_culls;
            }
            EXPECT_EQ(set.cull_missed(now, culled), slack);
            EXPECT_EQ(culled, gone);
            std::erase_if(model, [&](const Task& t) {
              return t.deadline_unreachable(now);
            });
            expect_compaction(set, positions, before.size(), head, reached);
            culled_total += culled.size();
            break;
          }
          default: {  // a delivery: some scheduled tasks leave, refused stay
            positions.clear();
            std::vector<TaskId> gone;
            for (std::uint32_t i = 0; i < set.size(); ++i) {
              if (!rng.bernoulli(0.3)) continue;  // not scheduled
              if (rng.bernoulli(0.25)) {
                ++kept;  // refused: readmitted, stays pending
                continue;
              }
              positions.push_back(i);
              gone.push_back(set.tasks()[i].id);
            }
            set.remove_scheduled(positions);
            std::erase_if(model, [&](const Task& t) {
              return std::find(gone.begin(), gone.end(), t.id) != gone.end();
            });
            expect_compaction(set, positions, before.size(), head, reached);
            retired += gone.size();
            break;
          }
        }
        if (model.empty()) p_max = e_max = 0;
        expect_matches_model(set, model, now);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(merged, 3000u);
  EXPECT_GT(culled_total, 500u);
  EXPECT_GT(retired, 500u);
  EXPECT_GT(kept, 200u);
  EXPECT_GT(reached.head_advances, 0u);
  EXPECT_GT(reached.up, 0u);
  EXPECT_GT(reached.down, 0u);
  EXPECT_GT(reached.recentres, 0u);
  EXPECT_GT(reached.recentred_growths, 0u);
  EXPECT_GT(reached.radix_groups_with_ties, 0u);
  EXPECT_GT(reached.radix_groups_negative, 0u);
  EXPECT_GT(reached.bounded_culls, 0u);
  RecordProperty("head_advances", std::to_string(reached.head_advances));
  RecordProperty("up", std::to_string(reached.up));
  RecordProperty("down", std::to_string(reached.down));
  RecordProperty("recentres", std::to_string(reached.recentres));
  RecordProperty("recentred_growths",
                 std::to_string(reached.recentred_growths));
  RecordProperty("radix_groups_with_ties",
                 std::to_string(reached.radix_groups_with_ties));
  RecordProperty("radix_groups_negative",
                 std::to_string(reached.radix_groups_negative));
  RecordProperty("bounded_culls", std::to_string(reached.bounded_culls));
}

TEST(BatchTest, InvalidArrivalLeavesTheSetUntouched) {
  Batch set(TaskOrder::kEarliestDeadline);
  set.merge_arrivals({make_task(1, msec(1), SimTime{100000})});
  Task no_holder = make_task(2, msec(1), SimTime{50000});
  no_holder.affinity = AffinitySet::none();
  Task no_width = make_task(3, msec(1), SimTime{50000});
  no_width.workers_required = 0;
  EXPECT_THROW(set.merge_arrivals({make_task(4, msec(1), SimTime{1}), no_holder}),
               InvalidArgument);
  EXPECT_THROW(set.merge_arrivals({no_width}), InvalidArgument);
  ASSERT_EQ(set.size(), 1u);
  EXPECT_EQ(set.tasks()[0].id, 1u);
}

}  // namespace
}  // namespace rtds::tasks
