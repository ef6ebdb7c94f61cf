#include "tasks/batch.h"

#include <gtest/gtest.h>

#include "common/error.h"

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

TEST(BatchTest, MergeSkipsDuplicateIdsInsteadOfAborting) {
  // A readmitted task racing a same-id arrival must not crash the host:
  // the duplicate is skipped and the pending copy wins.
  Batch b;
  EXPECT_EQ(b.merge_arrivals({make_task(1, msec(1), SimTime{100000})}), 1u);
  EXPECT_EQ(b.merge_arrivals({make_task(1, msec(9), SimTime{100000})}), 0u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.tasks()[0].processing, msec(1));  // first copy kept
}

TEST(BatchTest, ReadmitInsertsOnlyWhenAbsent) {
  Batch b;
  const Task t = make_task(5, msec(2), SimTime{100000});
  EXPECT_TRUE(b.readmit(t));    // not pending: inserted
  EXPECT_FALSE(b.readmit(t));   // already pending: no-op
  EXPECT_EQ(b.size(), 1u);
  b.remove_scheduled({0});
  EXPECT_TRUE(b.readmit(t));    // removed, so readmission re-inserts
  EXPECT_EQ(b.size(), 1u);
}

TEST(BatchTest, ReadmittedTaskKeepsBatchOrder) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(1), SimTime{100000}),
                    make_task(2, msec(1), SimTime{100000})});
  b.remove_scheduled({0});
  EXPECT_TRUE(b.readmit(make_task(1, msec(1), SimTime{100000})));
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.tasks()[0].id, 2u);  // readmission appends
  EXPECT_EQ(b.tasks()[1].id, 1u);
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

TEST(BatchTest, RemoveScheduledUnregistersExactlyTheRemovedIds) {
  // Regression: the id index used to be updated from the remove_if tail
  // range, which holds shifted copies of the KEPT elements — so removing
  // {1,3} from [1,2,3] unregistered 2 and 3 and left a ghost id 1 that
  // blocked readmission forever.
  Batch b;
  b.merge_arrivals({make_task(1, msec(1), SimTime{100000}),
                    make_task(2, msec(1), SimTime{100000}),
                    make_task(3, msec(1), SimTime{100000})});
  b.remove_scheduled({0, 2});
  EXPECT_FALSE(b.readmit(make_task(2, msec(1), SimTime{100000})));  // pending
  EXPECT_TRUE(b.readmit(make_task(1, msec(1), SimTime{100000})));
  EXPECT_TRUE(b.readmit(make_task(3, msec(1), SimTime{100000})));
  EXPECT_EQ(b.size(), 3u);
}

TEST(BatchTest, RemovedIdsCanReappearAsNewTasks) {
  // After a task leaves the batch its id is free again (the driver never
  // reuses ids, but the container must not keep ghosts).
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
  std::vector<Task> culled;
  b.cull_missed(SimTime::zero(), culled);
  ASSERT_EQ(culled.size(), 1u);
  EXPECT_EQ(culled[0].id, 2u);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.tasks()[0].id, 1u);
}

TEST(BatchTest, CullMissedIsTimeSensitive) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(2), SimTime::zero() + msec(10))});
  std::vector<Task> culled;
  b.cull_missed(SimTime::zero() + msec(8), culled);
  EXPECT_TRUE(culled.empty());
  b.cull_missed(SimTime::zero() + msec(9), culled);
  EXPECT_EQ(culled.size(), 1u);
  EXPECT_TRUE(b.empty());
}

TEST(BatchTest, CulledTaskIdIsReleased) {
  Batch b;
  b.merge_arrivals({make_task(7, msec(5), SimTime::zero() + msec(1))});
  std::vector<Task> culled;
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
  std::vector<Task> culled{make_task(99, msec(1), SimTime{1})};  // stale
  b.cull_missed(SimTime::zero(), culled);
  ASSERT_EQ(culled.size(), 3u);
  EXPECT_EQ(culled[0].id, 2u);
  EXPECT_EQ(culled[1].id, 3u);
  EXPECT_EQ(culled[2].id, 5u);
  ASSERT_EQ(b.size(), 3u);
  EXPECT_EQ(b.tasks()[0].id, 1u);
  EXPECT_EQ(b.tasks()[1].id, 4u);
  EXPECT_EQ(b.tasks()[2].id, 6u);
  // The culled ids are free again; the survivors' are still registered.
  EXPECT_TRUE(b.readmit(make_task(3, msec(1), SimTime::zero() + msec(60))));
  EXPECT_FALSE(b.readmit(make_task(4, msec(1), SimTime::zero() + msec(60))));
  // Nothing left to cull: the out-vector is emptied.
  b.cull_missed(SimTime::zero(), culled);
  EXPECT_TRUE(culled.empty());
  EXPECT_EQ(b.size(), 4u);
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

TEST(BatchTest, TotalProcessingSums) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(2), SimTime{1000000}),
                    make_task(2, msec(3), SimTime{1000000})});
  EXPECT_EQ(b.total_processing(), msec(5));
}

TEST(BatchTest, ClearEmptiesEverything) {
  Batch b;
  b.merge_arrivals({make_task(1, msec(2), SimTime{1000000})});
  b.clear();
  EXPECT_TRUE(b.empty());
}

TEST(BatchTest, ReadmitAfterPartialDelivery) {
  // A phase schedules {1,2,3}, the backend accepts only {1,3}: the pipeline
  // removes all three as scheduled, then readmits the refused task 2. The
  // batch must end with exactly the refused task pending, once.
  Batch b;
  const Task t1 = make_task(1, msec(1), SimTime{1000000});
  const Task t2 = make_task(2, msec(2), SimTime{1000000});
  const Task t3 = make_task(3, msec(3), SimTime{1000000});
  b.merge_arrivals({t1, t2, t3});
  b.remove_scheduled({0, 1, 2});
  EXPECT_TRUE(b.empty());
  EXPECT_TRUE(b.readmit(t2));
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.tasks()[0].id, 2u);
  // A second refusal of the same task in a later phase is a no-op while the
  // first readmission is still pending.
  EXPECT_FALSE(b.readmit(t2));
  EXPECT_EQ(b.size(), 1u);
}

TEST(BatchTest, ReadmittedTaskMergesWithDuplicateIdArrival) {
  // The readmitted copy is already pending when an arrival with the same id
  // shows up: the merge must skip the duplicate (pending copy wins) and
  // report 1 merged task, and the id index must stay consistent — after the
  // pending copy is scheduled away, the id is admissible again.
  Batch b;
  const Task refused = make_task(7, msec(2), SimTime{1000000});
  EXPECT_TRUE(b.readmit(refused));
  const Task same_id = make_task(7, msec(9), SimTime{2000000});
  const Task fresh = make_task(8, msec(1), SimTime{2000000});
  EXPECT_EQ(b.merge_arrivals({same_id, fresh}), 1u);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_EQ(b.tasks()[0].id, 7u);
  EXPECT_EQ(b.tasks()[0].processing, msec(2));  // the readmitted copy won
  b.remove_scheduled({0});
  EXPECT_EQ(b.size(), 1u);
  EXPECT_TRUE(b.readmit(refused));
  EXPECT_EQ(b.size(), 2u);
}

TEST(BatchTest, RemoveScheduledReadmitInterleaving) {
  // Several rounds of schedule-everything / readmit-the-refused must keep
  // the task set and the duplicate-detection index in lockstep.
  Batch b;
  std::vector<Task> all;
  for (TaskId id = 0; id < 6; ++id) {
    all.push_back(make_task(id, msec(1 + std::int64_t(id)), SimTime{5000000}));
  }
  b.merge_arrivals(all);
  for (int round = 0; round < 4; ++round) {
    // Schedule the whole batch...
    std::unordered_set<TaskId> scheduled;
    std::vector<std::uint32_t> positions;
    for (const Task& t : b.tasks()) {
      scheduled.insert(t.id);
      positions.push_back(std::uint32_t(positions.size()));
    }
    b.remove_scheduled(positions);
    EXPECT_TRUE(b.empty());
    // ...and readmit every other task, as a partial refusal would.
    std::size_t readmitted = 0;
    for (const Task& t : all) {
      if ((t.id + std::uint64_t(round)) % 2 == 0 && scheduled.count(t.id)) {
        EXPECT_TRUE(b.readmit(t));
        ++readmitted;
      }
    }
    EXPECT_EQ(b.size(), readmitted);
    all.assign(b.tasks().begin(), b.tasks().end());
  }
}

TEST(BatchTest, RemoveScheduledByIndexKeepsOrderAndIndex) {
  // Interior, adjacent and last positions at once: the survivors keep
  // their order, and exactly the removed ids become admissible again.
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
  for (const Task& t : all) {
    const bool removed = t.id == 11 || t.id == 14 || t.id == 15 || t.id == 19;
    EXPECT_EQ(b.readmit(t), removed) << "id " << t.id;
  }
  EXPECT_EQ(b.size(), all.size());
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
  EXPECT_FALSE(b.readmit(make_task(1, msec(1), SimTime{1000000})));
  EXPECT_FALSE(b.readmit(make_task(2, msec(1), SimTime{1000000})));
}

}  // namespace
}  // namespace rtds::tasks
