// Gang execution on the cluster: a k-worker assignment holds its whole
// contiguous block [worker, worker+k) for the task's span, produces ONE
// completion record (width == k), and the validator re-derives the block
// occupancy from first principles.
#include <gtest/gtest.h>

#include "common/error.h"
#include "machine/cluster.h"
#include "machine/validator.h"

namespace rtds::machine {
namespace {

Task make_gang(tasks::TaskId id, SimDuration p, std::uint32_t width,
               std::uint32_t machine) {
  Task t;
  t.id = id;
  t.processing = p;
  t.deadline = SimTime{1000000};
  t.affinity = AffinitySet::all(machine);
  t.workers_required = width;
  return t;
}

TEST(GangClusterTest, GangHoldsWholeBlockWithOneRecord) {
  Cluster cl(3, Interconnect::cut_through(3, SimDuration::zero()),
             ReclaimMode::kWorstCase, CompletionLog::kKeep);
  const Task gang = make_gang(1, msec(4), 2, 3);
  cl.deliver({{gang, 0}}, SimTime::zero() + msec(1));
  ASSERT_EQ(cl.log().size(), 1u);
  const CompletionRecord& rec = cl.log()[0];
  EXPECT_EQ(rec.width, 2u);
  EXPECT_EQ(rec.worker, 0u);
  EXPECT_EQ(rec.start, SimTime::zero() + msec(1));
  EXPECT_EQ(rec.end, SimTime::zero() + msec(5));
  // Both block members are held to the end; the outsider stays idle.
  EXPECT_EQ(cl.busy_until(0), rec.end);
  EXPECT_EQ(cl.busy_until(1), rec.end);
  EXPECT_EQ(cl.busy_until(2), SimTime::zero());
  EXPECT_EQ(cl.busy_time(0), msec(4));
  EXPECT_EQ(cl.busy_time(1), msec(4));
  EXPECT_EQ(cl.busy_time(2), SimDuration::zero());
}

TEST(GangClusterTest, GangWaitsForBusiestBlockMember) {
  Cluster cl(3, Interconnect::cut_through(3, SimDuration::zero()),
             ReclaimMode::kWorstCase, CompletionLog::kKeep);
  const Task single = make_gang(1, msec(6), 1, 3);
  cl.deliver({{single, 1}}, SimTime::zero());  // worker 1 busy to 6ms
  const Task gang = make_gang(2, msec(2), 2, 3);
  cl.deliver({{gang, 0}}, SimTime::zero() + msec(1));
  ASSERT_EQ(cl.log().size(), 2u);
  const CompletionRecord& rec = cl.log()[1];
  EXPECT_EQ(rec.start, SimTime::zero() + msec(6));  // waits for worker 1
  EXPECT_EQ(rec.end, SimTime::zero() + msec(8));
  EXPECT_EQ(cl.busy_until(0), rec.end);
  EXPECT_EQ(cl.busy_until(1), rec.end);
}

TEST(GangClusterTest, RejectsBlockExceedingMachine) {
  Cluster cl(3, Interconnect::cut_through(3, msec(1)));
  const Task gang = make_gang(1, msec(1), 2, 3);
  EXPECT_THROW(cl.deliver({{gang, 2}}, SimTime::zero()), InvalidArgument);
  const Task wide = make_gang(2, msec(1), 4, 3);
  EXPECT_THROW(cl.deliver({{wide, 0}}, SimTime::zero()), InvalidArgument);
}

TEST(GangClusterTest, ValidatorAcceptsCleanGangExecution) {
  Cluster cl(4, Interconnect::cut_through(4, msec(1)),
             ReclaimMode::kWorstCase, CompletionLog::kKeep);
  std::vector<tasks::Task> wl{make_gang(1, msec(3), 2, 4),
                              make_gang(2, msec(2), 1, 4),
                              make_gang(3, msec(4), 3, 4)};
  cl.deliver({{wl[0], 0}, {wl[1], 3}}, SimTime::zero() + msec(1));
  cl.deliver({{wl[2], 1}}, SimTime::zero() + msec(2));  // queues behind gang
  const ValidationReport r = validate_execution(cl, wl);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.records_checked, 3u);
}

TEST(GangClusterTest, ValidatorDetectsWidthMismatch) {
  Cluster cl(3, Interconnect::cut_through(3, msec(1)),
             ReclaimMode::kWorstCase, CompletionLog::kKeep);
  Task executed = make_gang(1, msec(2), 1, 3);
  cl.deliver({{executed, 0}}, SimTime::zero());
  // The workload says this task needed two workers; the log shows one.
  std::vector<tasks::Task> wl{make_gang(1, msec(2), 2, 3)};
  const ValidationReport r = validate_execution(cl, wl);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.to_string().find("logged gang width"), std::string::npos);
}

}  // namespace
}  // namespace rtds::machine
