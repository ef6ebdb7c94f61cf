#include "exp/analysis.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "machine/validator.h"
#include "sched/backend.h"
#include "sched/pipeline.h"
#include "sched/registry.h"
#include "sim/simulator.h"
#include "tasks/workload.h"

namespace rtds::exp {
namespace {

machine::CompletionRecord rec(SimTime end, SimTime deadline) {
  machine::CompletionRecord r;
  r.end = end;
  r.deadline = deadline;
  return r;
}

TEST(LatenessSummaryTest, EmptyLog) {
  const LatenessSummary s = lateness_summary({});
  EXPECT_EQ(s.executed, 0u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
}

TEST(LatenessSummaryTest, SplitsHitsAndMisses) {
  std::vector<machine::CompletionRecord> log{
      rec(SimTime{1000}, SimTime{5000}),   // +4ms margin
      rec(SimTime{5000}, SimTime{5000}),   // exactly on time -> hit
      rec(SimTime{9000}, SimTime{5000}),   // 4ms tardy
  };
  const LatenessSummary s = lateness_summary(log);
  EXPECT_EQ(s.executed, 3u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_NEAR(s.margin_ms.mean(), 0.0, 1e-9);  // +4, 0, -4
  EXPECT_NEAR(s.tardiness_ms.mean(), 4.0, 1e-9);
  EXPECT_NE(s.to_string().find("hits 2"), std::string::npos);
}

TEST(MarginHistogramTest, CentersOnZero) {
  std::vector<machine::CompletionRecord> log{
      rec(SimTime{1000}, SimTime{5000}),   // margin +4ms
      rec(SimTime{9000}, SimTime{5000}),   // margin -4ms
  };
  const Histogram h = margin_histogram(log, 10.0, 10);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(BalanceSummaryTest, PerfectBalance) {
  machine::Cluster cl(2, machine::Interconnect::cut_through(2, msec(0)));
  tasks::Task t;
  t.processing = msec(4);
  t.deadline = SimTime{1000000};
  t.affinity = tasks::AffinitySet::all(2);
  t.id = 1;
  machine::ScheduledAssignment a{t, 0};
  t.id = 2;
  machine::ScheduledAssignment b{t, 1};
  cl.deliver({a, b}, SimTime::zero());
  const BalanceSummary s = balance_summary(cl);
  EXPECT_DOUBLE_EQ(s.imbalance, 0.0);
  EXPECT_EQ(s.idle_workers, 0u);
  EXPECT_DOUBLE_EQ(s.busy_ms.mean(), 4.0);
}

TEST(BalanceSummaryTest, DetectsIdleWorkers) {
  machine::Cluster cl(3, machine::Interconnect::cut_through(3, msec(0)));
  tasks::Task t;
  t.id = 1;
  t.processing = msec(4);
  t.deadline = SimTime{1000000};
  t.affinity = tasks::AffinitySet::all(3);
  cl.deliver({{t, 0}}, SimTime::zero());
  const BalanceSummary s = balance_summary(cl);
  EXPECT_EQ(s.idle_workers, 2u);
  EXPECT_DOUBLE_EQ(s.imbalance, 1.0);
}

TEST(AnalysisIntegrationTest, EndToEndRunValidatesAndAnalyzes) {
  // Full pipeline -> oracle validation + analysis, for both schedulers.
  for (const char* spec : {"rt_sads", "d_cols"}) {
    const auto algo = sched::AlgorithmRegistry::builtin().make(spec);
    machine::Cluster cluster(4,
                             machine::Interconnect::cut_through(4, msec(2)));
    sim::Simulator sim;
    const auto quantum = sched::make_self_adjusting_quantum(usec(100),
                                                            msec(10));
    tasks::WorkloadConfig wc;
    wc.num_tasks = 150;
    wc.num_processors = 4;
    wc.laxity_min = 3.0;
    wc.laxity_max = 10.0;
    Xoshiro256ss rng(7);
    const auto wl = tasks::generate_workload(wc, rng);
    const sched::PhasePipeline pipeline(*algo, *quantum);
    sched::SimBackend backend(cluster, sim);
    const sched::RunMetrics m = pipeline.run(wl, backend);

    const machine::ValidationReport vr =
        machine::validate_execution(cluster, wl);
    EXPECT_TRUE(vr.ok()) << algo->name() << ":\n" << vr.to_string();

    const LatenessSummary ls = lateness_summary(cluster.log());
    EXPECT_EQ(ls.executed, m.scheduled);
    EXPECT_EQ(ls.hits, m.deadline_hits);
    EXPECT_EQ(ls.misses, m.exec_misses);
    // Correction theorem: the margin distribution never goes negative.
    if (ls.executed > 0) {
      EXPECT_GE(ls.margin_ms.min(), 0.0);
    }
  }
}

TEST(PeriodicBurstWorkloadTest, BurstsAtRegularIntervals) {
  tasks::WorkloadConfig wc;
  wc.num_tasks = 35;
  wc.num_processors = 2;
  wc.arrival = tasks::ArrivalPattern::kPeriodicBurst;
  wc.burst_size = 10;
  wc.burst_interval = msec(5);
  Xoshiro256ss rng(8);
  const auto wl = tasks::generate_workload(wc, rng);
  ASSERT_EQ(wl.size(), 35u);
  for (std::size_t i = 0; i < wl.size(); ++i) {
    EXPECT_EQ(wl[i].arrival, SimTime::zero() + msec(5) * std::int64_t(i / 10));
  }
}

TEST(PeriodicBurstWorkloadTest, Validation) {
  tasks::WorkloadConfig wc;
  wc.num_tasks = 10;
  wc.num_processors = 2;
  wc.arrival = tasks::ArrivalPattern::kPeriodicBurst;
  wc.burst_size = 0;
  Xoshiro256ss rng(9);
  EXPECT_THROW(tasks::generate_workload(wc, rng), InvalidArgument);
  wc.burst_size = 5;
  wc.burst_interval = SimDuration::zero();
  EXPECT_THROW(tasks::generate_workload(wc, rng), InvalidArgument);
}

}  // namespace
}  // namespace rtds::exp
