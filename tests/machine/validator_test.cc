#include "machine/validator.h"

#include <gtest/gtest.h>

namespace rtds::machine {
namespace {

Task make_task(tasks::TaskId id, SimDuration p, SimTime d,
               AffinitySet affinity, SimTime arrival = SimTime::zero()) {
  Task t;
  t.id = id;
  t.arrival = arrival;
  t.processing = p;
  t.deadline = d;
  t.affinity = affinity;
  return t;
}

TEST(ValidatorTest, CleanExecutionPasses) {
  Cluster cl(2, Interconnect::cut_through(2, msec(1)),
             ReclaimMode::kWorstCase, CompletionLog::kKeep);
  std::vector<tasks::Task> wl{
      make_task(1, msec(3), SimTime{100000}, AffinitySet::single(0)),
      make_task(2, msec(2), SimTime{100000}, AffinitySet::single(1)),
      make_task(3, msec(2), SimTime{100000}, AffinitySet::single(0))};
  cl.deliver({{wl[0], 0}, {wl[1], 0}}, SimTime::zero() + msec(1));
  cl.deliver({{wl[2], 1}}, SimTime::zero() + msec(2));
  const ValidationReport r = validate_execution(cl, wl);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.records_checked, 3u);
}

TEST(ValidatorTest, DetectsUnknownTask) {
  Cluster cl(1, Interconnect::cut_through(1, msec(1)),
             ReclaimMode::kWorstCase, CompletionLog::kKeep);
  const tasks::Task ghost =
      make_task(99, msec(1), SimTime{100000}, AffinitySet::single(0));
  cl.deliver({{ghost, 0}}, SimTime::zero());
  const ValidationReport r = validate_execution(cl, {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.to_string().find("not in the workload"), std::string::npos);
}

TEST(ValidatorTest, DetectsDoubleExecution) {
  Cluster cl(1, Interconnect::cut_through(1, msec(1)),
             ReclaimMode::kWorstCase, CompletionLog::kKeep);
  std::vector<tasks::Task> wl{
      make_task(1, msec(1), SimTime{100000}, AffinitySet::single(0))};
  cl.deliver({{wl[0], 0}, {wl[0], 0}}, SimTime::zero());
  const ValidationReport r = validate_execution(cl, wl);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.to_string().find("more than once"), std::string::npos);
}

TEST(ValidatorTest, DetectsSchedulingBeforeArrival) {
  Cluster cl(1, Interconnect::cut_through(1, msec(1)),
             ReclaimMode::kWorstCase, CompletionLog::kKeep);
  std::vector<tasks::Task> wl{make_task(1, msec(1), SimTime{100000},
                                        AffinitySet::single(0),
                                        SimTime::zero() + msec(50))};
  cl.deliver({{wl[0], 0}}, SimTime::zero());  // before its arrival
  const ValidationReport r = validate_execution(cl, wl);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.to_string().find("before it arrived"), std::string::npos);
}

TEST(ValidatorTest, DetectsTamperedLog) {
  // White-box: validate against a workload whose definition was changed
  // after execution — processing mismatch must surface.
  Cluster cl(1, Interconnect::cut_through(1, msec(1)),
             ReclaimMode::kWorstCase, CompletionLog::kKeep);
  std::vector<tasks::Task> wl{
      make_task(1, msec(5), SimTime{100000}, AffinitySet::single(0))};
  cl.deliver({{wl[0], 0}}, SimTime::zero());
  wl[0].processing = msec(4);  // tamper
  const ValidationReport r = validate_execution(cl, wl);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.to_string().find("demand"), std::string::npos);
}

TEST(ValidatorTest, DetectsDeadlineTampering) {
  Cluster cl(1, Interconnect::cut_through(1, msec(1)),
             ReclaimMode::kWorstCase, CompletionLog::kKeep);
  std::vector<tasks::Task> wl{
      make_task(1, msec(5), SimTime{100000}, AffinitySet::single(0))};
  cl.deliver({{wl[0], 0}}, SimTime::zero());
  wl[0].deadline = SimTime{1};  // tamper: task would have missed
  const ValidationReport r = validate_execution(cl, wl);
  ASSERT_FALSE(r.ok());
}

TEST(ValidatorTest, ValidatesReclaimedExecutions) {
  Cluster cl(1, Interconnect::cut_through(1, SimDuration::zero()),
             ReclaimMode::kReclaim, CompletionLog::kKeep);
  tasks::Task t = make_task(1, msec(10), SimTime{100000},
                            AffinitySet::single(0));
  t.actual_processing = msec(3);
  cl.deliver({{t, 0}}, SimTime::zero());
  const ValidationReport r = validate_execution(cl, {t});
  EXPECT_TRUE(r.ok()) << r.to_string();
}

TEST(ValidatorTest, DuplicateWorkloadIdsReported) {
  Cluster cl(1, Interconnect::cut_through(1, msec(1)),
             ReclaimMode::kWorstCase, CompletionLog::kKeep);
  const auto t = make_task(1, msec(1), SimTime{100000},
                           AffinitySet::single(0));
  const ValidationReport r = validate_execution(cl, {t, t});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.to_string().find("duplicate"), std::string::npos);
}

}  // namespace
}  // namespace rtds::machine
