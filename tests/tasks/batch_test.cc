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
  // Nothing left to cull: the out-vector is emptied.
  b.cull_missed(SimTime::zero(), culled);
  EXPECT_TRUE(culled.empty());
  EXPECT_EQ(b.size(), 3u);
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

}  // namespace
}  // namespace rtds::tasks
