// Integration tests for the resource-reclaiming extension through the full
// experiment harness (workload, scheduler, cluster).
#include <gtest/gtest.h>

#include "exp/experiment.h"
#include "sched/registry.h"
#include "tasks/workload.h"

namespace rtds::exp {
namespace {

ExperimentConfig tiny(bool reclaim) {
  ExperimentConfig cfg;
  cfg.num_workers = 4;
  cfg.num_transactions = 200;
  cfg.database.num_subdbs = 4;
  cfg.database.records_per_subdb = 100;
  cfg.database.domain_size = 20;
  cfg.replication_rate = 0.5;
  cfg.repetitions = 3;
  cfg.reclaim_actual_costs = reclaim;
  return cfg;
}

TEST(ReclaimExperimentTest, TheoremHoldsUnderReclaiming) {
  for (const char* spec : {"rt_sads", "d_cols", "edf_bf"}) {
    const auto algo = sched::AlgorithmRegistry::builtin().make(spec);
    const Aggregate agg = run_repeated(tiny(true), *algo);
    EXPECT_DOUBLE_EQ(agg.exec_misses.max(), 0.0) << algo->name();
  }
}

TEST(ReclaimExperimentTest, ReclaimingNeverHurtsCompliance) {
  for (const char* spec : {"rt_sads", "d_cols"}) {
    const auto algo = sched::AlgorithmRegistry::builtin().make(spec);
    const double worst = run_repeated(tiny(false), *algo).hit_ratio.mean();
    const double reclaim = run_repeated(tiny(true), *algo).hit_ratio.mean();
    // Reclaiming can shift which tasks are chosen in later phases, so allow
    // tiny regressions from scheduling noise, but the trend must be up.
    EXPECT_GE(reclaim + 0.02, worst) << algo->name();
  }
}

TEST(ReclaimExperimentTest, DeterministicWithReclaiming) {
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto a = run_once(tiny(true), *algo, 9);
  const auto b = run_once(tiny(true), *algo, 9);
  EXPECT_EQ(a.deadline_hits, b.deadline_hits);
  EXPECT_EQ(a.finish_time, b.finish_time);
}

TEST(SyntheticReclaimWorkloadTest, ActualFractionsApplied) {
  tasks::WorkloadConfig wc;
  wc.num_tasks = 200;
  wc.num_processors = 4;
  wc.actual_fraction_min = 0.3;
  wc.actual_fraction_max = 0.7;
  Xoshiro256ss rng(1);
  for (const tasks::Task& t : tasks::generate_workload(wc, rng)) {
    EXPECT_FALSE(t.actual_processing.is_zero());
    const double frac = double(t.actual_processing.us) /
                        double(t.processing.us);
    EXPECT_GE(frac, 0.29);
    EXPECT_LE(frac, 0.71);
  }
}

TEST(SyntheticReclaimWorkloadTest, DefaultLeavesActualUnset) {
  tasks::WorkloadConfig wc;
  wc.num_tasks = 50;
  wc.num_processors = 2;
  Xoshiro256ss rng(2);
  for (const tasks::Task& t : tasks::generate_workload(wc, rng)) {
    EXPECT_TRUE(t.actual_processing.is_zero());
  }
}

TEST(SyntheticReclaimWorkloadTest, ValidatesFractionRange) {
  tasks::WorkloadConfig wc;
  wc.num_tasks = 10;
  wc.num_processors = 2;
  wc.actual_fraction_min = 0.0;
  Xoshiro256ss rng(3);
  EXPECT_THROW(tasks::generate_workload(wc, rng), InvalidArgument);
  wc.actual_fraction_min = 0.8;
  wc.actual_fraction_max = 0.5;
  EXPECT_THROW(tasks::generate_workload(wc, rng), InvalidArgument);
  wc.actual_fraction_min = 0.5;
  wc.actual_fraction_max = 1.2;
  EXPECT_THROW(tasks::generate_workload(wc, rng), InvalidArgument);
}

}  // namespace
}  // namespace rtds::exp
