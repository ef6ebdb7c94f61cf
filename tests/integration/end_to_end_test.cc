// End-to-end integration tests: the full paper pipeline — database,
// placement, transactions, scheduling search, quantum control, simulated
// execution — wired together exactly as the benchmark harness does, with
// qualitative checks of the paper's headline claims at reduced scale.
#include <gtest/gtest.h>

#include "exp/experiment.h"
#include "sched/registry.h"

namespace rtds::exp {
namespace {

ExperimentConfig paper_like(std::uint32_t workers, double replication,
                            double sf) {
  ExperimentConfig cfg;
  cfg.num_workers = workers;
  cfg.replication_rate = replication;
  cfg.scaling_factor = sf;
  cfg.num_transactions = 300;  // reduced from 1000 to keep tests quick
  cfg.repetitions = 3;         // reduced from 10
  return cfg;
}

TEST(EndToEndTest, CorrectionTheoremHoldsOnPaperWorkload) {
  for (const char* spec : {"rt_sads", "d_cols"}) {
    const auto algo = sched::AlgorithmRegistry::builtin().make(spec);
    const Aggregate agg = run_repeated(paper_like(10, 0.3, 1.0), *algo);
    EXPECT_DOUBLE_EQ(agg.exec_misses.max(), 0.0) << algo->name();
  }
}

TEST(EndToEndTest, RtSadsBeatsDColsOnPaperHeadlineConfig) {
  // Figure 5's headline point: m = 10, R = 30%, SF = 1.
  const ExperimentConfig cfg = paper_like(10, 0.3, 1.0);
  const auto rt = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto dc = sched::AlgorithmRegistry::builtin().make("d_cols");
  const Aggregate a = run_repeated(cfg, *rt);
  const Aggregate b = run_repeated(cfg, *dc);
  EXPECT_GT(a.hit_ratio.mean(), b.hit_ratio.mean());
}

TEST(EndToEndTest, RtSadsScalesWithProcessors) {
  // Fig. 5's RT-SADS curve: compliance rises with m.
  const auto rt = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const double at2 = run_repeated(paper_like(2, 0.3, 1.0), *rt)
                         .hit_ratio.mean();
  const double at10 = run_repeated(paper_like(10, 0.3, 1.0), *rt)
                          .hit_ratio.mean();
  EXPECT_GT(at10, at2);
}

TEST(EndToEndTest, LooserDeadlinesImproveCompliance) {
  // SF sweep direction: SF=3 is easier than SF=1 for both algorithms.
  for (const char* spec : {"rt_sads", "d_cols"}) {
    const auto algo = sched::AlgorithmRegistry::builtin().make(spec);
    const double tight = run_repeated(paper_like(6, 0.3, 1.0), *algo)
                             .hit_ratio.mean();
    const double loose = run_repeated(paper_like(6, 0.3, 3.0), *algo)
                             .hit_ratio.mean();
    EXPECT_GE(loose + 0.02, tight) << algo->name();
  }
}

TEST(EndToEndTest, DColsGainsMoreFromReplicationButStaysBehind) {
  // Fig. 6 mechanism: with full replication processor selection stops
  // mattering, so D-COLS catches up — but RT-SADS stays ahead or equal.
  const auto rt = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto dc = sched::AlgorithmRegistry::builtin().make("d_cols");
  const ExperimentConfig low = paper_like(10, 0.1, 1.0);
  const ExperimentConfig high = paper_like(10, 1.0, 1.0);
  const double dc_low = run_repeated(low, *dc).hit_ratio.mean();
  const double dc_high = run_repeated(high, *dc).hit_ratio.mean();
  const double rt_high = run_repeated(high, *rt).hit_ratio.mean();
  EXPECT_GT(dc_high, dc_low);
  EXPECT_GE(rt_high + 0.02, dc_high);
}

TEST(EndToEndTest, SelfAdjustingQuantumAdaptsAcrossPhases) {
  // The Fig. 3 criterion must actually vary the allocation across phases
  // within a run (slack and load both move), whereas a fixed quantum is
  // constant by construction.
  ExperimentConfig cfg = paper_like(8, 0.3, 1.0);
  const auto rt = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const sched::RunMetrics adaptive = run_once(cfg, *rt, 7);
  EXPECT_LT(adaptive.min_quantum_seen, adaptive.max_quantum_seen);

  cfg.quantum = QuantumKind::kFixed;
  cfg.fixed_quantum = msec(5);
  const sched::RunMetrics fixed = run_once(cfg, *rt, 7);
  EXPECT_EQ(fixed.min_quantum_seen, fixed.max_quantum_seen);
  EXPECT_EQ(fixed.max_quantum_seen, msec(5));
}

TEST(EndToEndTest, StatisticalProtocolDetectsTheHeadlineGap) {
  // With 5 repetitions the Welch test should already separate RT-SADS from
  // D-COLS on the headline configuration at the paper's 0.01 level.
  ExperimentConfig cfg = paper_like(10, 0.3, 1.0);
  cfg.repetitions = 5;
  const auto rt = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto dc = sched::AlgorithmRegistry::builtin().make("d_cols");
  const Aggregate a = run_repeated(cfg, *rt);
  const Aggregate b = run_repeated(cfg, *dc);
  const WelchResult w = compare_hit_ratios(a, b);
  EXPECT_TRUE(w.significant(0.01))
      << "p=" << w.p_value << " rt=" << a.hit_ratio.mean()
      << " dcols=" << b.hit_ratio.mean();
}

TEST(EndToEndTest, SchedulerSpreadsLoadAcrossWorkers) {
  // RT-SADS's cost function balances: on the headline config, every worker
  // should execute a non-trivial share of the transactions.
  const ExperimentConfig cfg = paper_like(10, 0.3, 1.0);
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const sched::RunMetrics m = run_once(cfg, *algo, 42);
  EXPECT_GT(m.scheduled, 0u);
  EXPECT_EQ(m.exec_misses, 0u);
}

}  // namespace
}  // namespace rtds::exp
