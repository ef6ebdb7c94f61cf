#include "machine/schedule_export.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"

namespace rtds::machine {
namespace {

Cluster loaded_cluster() {
  Cluster cl(2, Interconnect::cut_through(2, msec(1)), ReclaimMode::kWorstCase,
             CompletionLog::kKeep);
  Task t1;
  t1.id = 7;
  t1.processing = msec(4);
  t1.deadline = SimTime::zero() + msec(20);
  t1.affinity.add(0);
  Task t2 = t1;
  t2.id = 8;
  t2.deadline = SimTime::zero() + msec(2);  // will miss
  cl.deliver({{t1, 0}, {t2, 1}}, SimTime::zero());
  return cl;
}

TEST(CompletionCsvTest, OneRowPerTaskWithHeader) {
  const Cluster cl = loaded_cluster();
  std::ostringstream os;
  write_completion_csv(cl, os);
  const std::string out = os.str();
  // Header + 2 rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
  EXPECT_NE(out.find("task,worker,"), std::string::npos);
  // Task 7 on worker 0 hits; task 8 pays comm and misses.
  EXPECT_NE(out.find("7,0,0,0,4000,20000,0,1"), std::string::npos);
  EXPECT_NE(out.find("8,1,0,0,5000,2000,1000,0"), std::string::npos);
}

TEST(UtilizationSummaryTest, ReportsEveryWorker) {
  const Cluster cl = loaded_cluster();
  std::ostringstream os;
  write_utilization_summary(cl, SimTime::zero() + msec(10), os);
  const std::string out = os.str();
  EXPECT_NE(out.find("worker"), std::string::npos);
  // Worker 0: 4ms busy over 10ms horizon = 40%.
  EXPECT_NE(out.find("40.0"), std::string::npos);
  // Worker 1: 5ms (4 + 1 comm) = 50%.
  EXPECT_NE(out.find("50.0"), std::string::npos);
}

TEST(UtilizationSummaryTest, RejectsZeroHorizon) {
  const Cluster cl = loaded_cluster();
  std::ostringstream os;
  EXPECT_THROW(write_utilization_summary(cl, SimTime::zero(), os),
               InvalidArgument);
}

}  // namespace
}  // namespace rtds::machine
