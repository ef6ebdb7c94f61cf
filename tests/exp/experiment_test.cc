#include "exp/experiment.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "sched/registry.h"

namespace rtds::exp {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.num_workers = 4;
  cfg.num_transactions = 120;
  cfg.database.num_subdbs = 4;
  cfg.database.records_per_subdb = 100;
  cfg.database.domain_size = 20;
  cfg.database.check_cost = usec(20);
  cfg.replication_rate = 0.5;
  cfg.repetitions = 3;
  return cfg;
}

TEST(ExperimentConfigTest, QuantumFactoryMatchesKind) {
  ExperimentConfig cfg = tiny_config();
  cfg.quantum = QuantumKind::kSelfAdjusting;
  cfg.min_quantum = msec(1);
  cfg.max_quantum = msec(4);
  auto q = cfg.make_quantum();
  EXPECT_EQ(q->allocate(msec(2), msec(3)), msec(3));
  EXPECT_EQ(q->allocate(sec(1), sec(1)), msec(4));

  cfg.quantum = QuantumKind::kFixed;
  cfg.fixed_quantum = msec(7);
  q = cfg.make_quantum();
  EXPECT_EQ(q->allocate(msec(1), msec(1)), msec(7));
}

TEST(RunOnceTest, ProducesConsistentMetrics) {
  const ExperimentConfig cfg = tiny_config();
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto m = run_once(cfg, *algo, /*seed=*/123);
  EXPECT_EQ(m.total_tasks, 120u);
  EXPECT_EQ(m.exec_misses, 0u);  // correction theorem
  EXPECT_EQ(m.deadline_hits + m.exec_misses, m.scheduled);
  EXPECT_LE(m.scheduled + m.culled, m.total_tasks);
  EXPECT_GT(m.phases, 0u);
}

TEST(RunOnceTest, DeterministicForSeed) {
  const ExperimentConfig cfg = tiny_config();
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto a = run_once(cfg, *algo, 77);
  const auto b = run_once(cfg, *algo, 77);
  EXPECT_EQ(a.deadline_hits, b.deadline_hits);
  EXPECT_EQ(a.phases, b.phases);
  EXPECT_EQ(a.vertices_generated, b.vertices_generated);
  EXPECT_EQ(a.finish_time, b.finish_time);
}

TEST(RunOnceTest, DifferentSeedsDiffer) {
  const ExperimentConfig cfg = tiny_config();
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto a = run_once(cfg, *algo, 1);
  const auto b = run_once(cfg, *algo, 2);
  // Workloads differ, so at least one counter should differ.
  EXPECT_TRUE(a.vertices_generated != b.vertices_generated ||
              a.deadline_hits != b.deadline_hits ||
              a.finish_time != b.finish_time);
}

TEST(RunRepeatedTest, AggregatesRepetitions) {
  const ExperimentConfig cfg = tiny_config();
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const Aggregate agg = run_repeated(cfg, *algo);
  EXPECT_EQ(agg.algorithm, "rt_sads");
  EXPECT_EQ(agg.hit_ratio.count(), 3u);
  EXPECT_GE(agg.hit_ratio.min(), 0.0);
  EXPECT_LE(agg.hit_ratio.max(), 1.0);
  EXPECT_DOUBLE_EQ(agg.exec_misses.max(), 0.0);
  EXPECT_GT(agg.phases.mean(), 0.0);
}

TEST(RunRepeatedTest, ValidatesRepetitions) {
  ExperimentConfig cfg = tiny_config();
  cfg.repetitions = 0;
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  EXPECT_THROW(run_repeated(cfg, *algo), InvalidArgument);
}

TEST(CompareHitRatiosTest, WiredToWelch) {
  ExperimentConfig cfg = tiny_config();
  cfg.repetitions = 4;
  const auto rt = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto ff = sched::AlgorithmRegistry::builtin().make("edf_ff");
  const Aggregate a = run_repeated(cfg, *rt);
  const Aggregate b = run_repeated(cfg, *ff);
  const WelchResult w = compare_hit_ratios(a, b);
  EXPECT_GE(w.p_value, 0.0);
  EXPECT_LE(w.p_value, 1.0);
}

TEST(ReplicationEffectTest, HigherReplicationDoesNotHurtRtSads) {
  // Coarse sanity on the Fig. 6 mechanism at tiny scale: more replication
  // means weakly better compliance for RT-SADS.
  ExperimentConfig low = tiny_config();
  low.replication_rate = 0.25;
  ExperimentConfig high = tiny_config();
  high.replication_rate = 1.0;
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const double lo = run_repeated(low, *algo).hit_ratio.mean();
  const double hi = run_repeated(high, *algo).hit_ratio.mean();
  EXPECT_GE(hi + 0.05, lo);  // allow small noise
}

}  // namespace
}  // namespace rtds::exp
