#include "machine/cluster.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace rtds::machine {
namespace {

Task make_task(tasks::TaskId id, SimDuration p, SimTime d,
               AffinitySet affinity) {
  Task t;
  t.id = id;
  t.processing = p;
  t.deadline = d;
  t.affinity = affinity;
  return t;
}

Cluster make_cluster(std::uint32_t workers, SimDuration c = msec(2)) {
  return Cluster(workers, Interconnect::cut_through(workers, c),
                 ReclaimMode::kWorstCase, CompletionLog::kKeep);
}

TEST(ClusterTest, StartsIdle) {
  Cluster cl = make_cluster(4);
  for (ProcessorId k = 0; k < 4; ++k) {
    EXPECT_EQ(cl.load(k, SimTime::zero()), SimDuration::zero());
    EXPECT_EQ(cl.busy_until(k), SimTime::zero());
  }
  EXPECT_EQ(cl.min_load(SimTime::zero()), SimDuration::zero());
  EXPECT_EQ(cl.makespan(), SimTime::zero());
  EXPECT_EQ(cl.stats().executed, 0u);
}

TEST(ClusterTest, ValidatesConstruction) {
  EXPECT_THROW(Cluster(0, Interconnect::cut_through(1, msec(1))),
               InvalidArgument);
  EXPECT_THROW(Cluster(4, Interconnect::cut_through(2, msec(1))),
               InvalidArgument);
}

TEST(ClusterTest, SequentialExecutionOnOneWorker) {
  Cluster cl = make_cluster(2);
  const SimTime now = SimTime::zero() + msec(1);
  cl.deliver({{make_task(1, msec(5), SimTime{100000}, AffinitySet::single(0)),
               0},
              {make_task(2, msec(3), SimTime{100000}, AffinitySet::single(0)),
               0}},
             now);
  ASSERT_EQ(cl.log().size(), 2u);
  EXPECT_EQ(cl.log()[0].start, now);
  EXPECT_EQ(cl.log()[0].end, now + msec(5));
  EXPECT_EQ(cl.log()[1].start, now + msec(5));
  EXPECT_EQ(cl.log()[1].end, now + msec(8));
  EXPECT_EQ(cl.busy_until(0), now + msec(8));
  EXPECT_EQ(cl.busy_until(1), SimTime::zero());
  EXPECT_EQ(cl.makespan(), now + msec(8));
}

TEST(ClusterTest, CommunicationCostAddedOffAffinity) {
  Cluster cl = make_cluster(2, msec(2));
  cl.deliver({{make_task(1, msec(5), SimTime{100000}, AffinitySet::single(1)),
               0}},
             SimTime::zero());
  ASSERT_EQ(cl.log().size(), 1u);
  EXPECT_EQ(cl.log()[0].comm_cost, msec(2));
  EXPECT_EQ(cl.log()[0].end, SimTime::zero() + msec(7));
  EXPECT_EQ(cl.busy_time(0), msec(7));
}

TEST(ClusterTest, DeadlineAccounting) {
  Cluster cl = make_cluster(1, msec(0));
  const AffinitySet a0 = AffinitySet::single(0);
  // Hit: 5ms work, 10ms deadline. Miss: queued behind it.
  cl.deliver({{make_task(1, msec(5), SimTime::zero() + msec(10), a0), 0},
              {make_task(2, msec(5), SimTime::zero() + msec(6), a0), 0}},
             SimTime::zero());
  EXPECT_EQ(cl.stats().executed, 2u);
  EXPECT_EQ(cl.stats().deadline_hits, 1u);
  EXPECT_EQ(cl.stats().deadline_misses, 1u);
  EXPECT_TRUE(cl.log()[0].met_deadline());
  EXPECT_FALSE(cl.log()[1].met_deadline());
}

TEST(ClusterTest, DeadlineExactlyAtEndIsHit) {
  Cluster cl = make_cluster(1, msec(0));
  cl.deliver({{make_task(1, msec(5), SimTime::zero() + msec(5),
                         AffinitySet::single(0)),
               0}},
             SimTime::zero());
  EXPECT_EQ(cl.stats().deadline_hits, 1u);
}

TEST(ClusterTest, LoadDrainsOverTime) {
  Cluster cl = make_cluster(2);
  cl.deliver({{make_task(1, msec(6), SimTime{1000000}, AffinitySet::single(0)),
               0}},
             SimTime::zero());
  EXPECT_EQ(cl.load(0, SimTime::zero()), msec(6));
  EXPECT_EQ(cl.load(0, SimTime::zero() + msec(4)), msec(2));
  EXPECT_EQ(cl.load(0, SimTime::zero() + msec(6)), SimDuration::zero());
  EXPECT_EQ(cl.load(0, SimTime::zero() + msec(9)), SimDuration::zero());
  EXPECT_EQ(cl.min_load(SimTime::zero()), SimDuration::zero());  // worker 1
}

TEST(ClusterTest, LaterDeliveryStartsAtDeliveryTime) {
  Cluster cl = make_cluster(1);
  const AffinitySet a0 = AffinitySet::single(0);
  cl.deliver({{make_task(1, msec(2), SimTime{1000000}, a0), 0}},
             SimTime::zero());
  // Worker idle from 2ms; delivery at 5ms starts at 5ms, not 2ms.
  cl.deliver({{make_task(2, msec(2), SimTime{1000000}, a0), 0}},
             SimTime::zero() + msec(5));
  EXPECT_EQ(cl.log()[1].start, SimTime::zero() + msec(5));
  EXPECT_EQ(cl.log()[1].end, SimTime::zero() + msec(7));
}

TEST(ClusterTest, DeliveryToBusyWorkerQueues) {
  Cluster cl = make_cluster(1);
  const AffinitySet a0 = AffinitySet::single(0);
  cl.deliver({{make_task(1, msec(10), SimTime{1000000}, a0), 0}},
             SimTime::zero());
  cl.deliver({{make_task(2, msec(2), SimTime{1000000}, a0), 0}},
             SimTime::zero() + msec(3));
  EXPECT_EQ(cl.log()[1].start, SimTime::zero() + msec(10));
}

TEST(ClusterTest, MultiWorkerIndependentQueues) {
  Cluster cl = make_cluster(3);
  const SimTime d = SimTime{1000000};
  cl.deliver({{make_task(1, msec(4), d, AffinitySet::single(0)), 0},
              {make_task(2, msec(2), d, AffinitySet::single(1)), 1},
              {make_task(3, msec(7), d, AffinitySet::single(2)), 2}},
             SimTime::zero());
  EXPECT_EQ(cl.busy_until(0), SimTime::zero() + msec(4));
  EXPECT_EQ(cl.busy_until(1), SimTime::zero() + msec(2));
  EXPECT_EQ(cl.busy_until(2), SimTime::zero() + msec(7));
  EXPECT_EQ(cl.makespan(), SimTime::zero() + msec(7));
  EXPECT_EQ(cl.min_load(SimTime::zero() + msec(1)), msec(1));
}

TEST(ClusterTest, RejectsBadWorkerIds) {
  Cluster cl = make_cluster(2);
  EXPECT_THROW(static_cast<void>(cl.load(2, SimTime::zero())), InvalidArgument);
  EXPECT_THROW(static_cast<void>(cl.busy_until(2)), InvalidArgument);
  EXPECT_THROW(static_cast<void>(cl.busy_time(2)), InvalidArgument);
  EXPECT_THROW(
      cl.deliver({{make_task(1, msec(1), SimTime{10}, AffinitySet::single(0)),
                   5}},
                 SimTime::zero()),
      InvalidArgument);
}

TEST(ClusterTest, LogThrowsUnlessKept) {
  Cluster cl(1, Interconnect::cut_through(1, msec(0)));
  cl.deliver({{make_task(1, msec(5), SimTime{100000}, AffinitySet::single(0)),
               0}},
             SimTime::zero());
  EXPECT_EQ(cl.stats().executed, 1u);
  // No reader may take a log that was never kept for an empty one.
  EXPECT_THROW(static_cast<void>(cl.log()), InvalidArgument);
  EXPECT_TRUE(make_cluster(1).log().empty());
}

TEST(ClusterTest, DeliverReturnsThisDeliverysRecords) {
  for (const CompletionLog log : {CompletionLog::kOff, CompletionLog::kKeep}) {
    Cluster cl(1, Interconnect::cut_through(1, msec(0)),
               ReclaimMode::kWorstCase, log);
    const AffinitySet a0 = AffinitySet::single(0);
    (void)cl.deliver({{make_task(1, msec(5), SimTime::zero() + msec(10), a0),
                       0}},
                     SimTime::zero());
    const auto records = cl.deliver(
        {{make_task(2, msec(5), SimTime::zero() + msec(20), a0), 0},
         {make_task(3, msec(5), SimTime::zero() + msec(12), a0), 0}},
        SimTime::zero() + msec(1));
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].task, 2u);
    EXPECT_EQ(records[0].start, SimTime::zero() + msec(5));
    EXPECT_EQ(records[0].end, SimTime::zero() + msec(10));
    EXPECT_TRUE(records[0].met_deadline());
    EXPECT_EQ(records[1].task, 3u);
    EXPECT_FALSE(records[1].met_deadline());
    if (log == CompletionLog::kKeep) {
      ASSERT_EQ(cl.log().size(), 3u);
      EXPECT_EQ(cl.log()[2].end, records[1].end);
    }
  }
}

TEST(ClusterTest, ExecutionCostHelper) {
  Cluster cl = make_cluster(2, msec(3));
  const Task t =
      make_task(1, msec(4), SimTime{1000000}, AffinitySet::single(1));
  EXPECT_EQ(cl.execution_cost(t, 1), msec(4));
  EXPECT_EQ(cl.execution_cost(t, 0), msec(7));
}

}  // namespace
}  // namespace rtds::machine
