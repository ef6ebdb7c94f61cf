// Integration tests of the live threaded runtime: the phase pipeline over a
// ThreadedBackend. Wall-clock timing is inherently noisy, so deadlines here
// carry generous margins; the strong assertions are bookkeeping invariants,
// not exact latencies.
#include "runtime/threaded_backend.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "sched/pipeline.h"
#include "sched/quantum.h"
#include "sched/registry.h"
#include "tasks/workload.h"

namespace rtds::runtime {
namespace {

using sched::RunMetrics;

RuntimeConfig fast_config(std::uint32_t workers) {
  RuntimeConfig cfg;
  cfg.num_workers = workers;
  cfg.comm_cost = msec(1);
  cfg.time_scale = 1.0;
  return cfg;
}

/// Runs `workload` to completion on real threads. The backend's wall clock
/// pays for every phase as it runs, so the pipeline charges no synthetic
/// per-phase overhead on top.
RunMetrics run_live(const sched::PhaseAlgorithm& algorithm,
                    const sched::QuantumPolicy& quantum,
                    const RuntimeConfig& config,
                    const std::vector<tasks::Task>& workload,
                    std::uint32_t max_delivery_attempts = 8) {
  sched::PipelineConfig pipeline_config;
  pipeline_config.phase_overhead = SimDuration::zero();
  pipeline_config.max_delivery_attempts = max_delivery_attempts;
  const sched::PhasePipeline pipeline(algorithm, quantum, pipeline_config);
  ThreadedBackend backend(config);
  return pipeline.run(workload, backend);
}

TEST(ThreadedRuntimeTest, EmptyWorkload) {
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = sched::make_self_adjusting_quantum(usec(200), msec(5));
  const RunMetrics r = run_live(*algo, *q, fast_config(2), {});
  EXPECT_EQ(r.total_tasks, 0u);
  EXPECT_DOUBLE_EQ(r.hit_ratio(), 1.0);
}

TEST(ThreadedRuntimeTest, ValidatesConfig) {
  RuntimeConfig cfg = fast_config(0);
  EXPECT_THROW(ThreadedBackend{cfg}, InvalidArgument);
  cfg = fast_config(2);
  cfg.time_scale = 0.0;
  EXPECT_THROW(ThreadedBackend{cfg}, InvalidArgument);
}

TEST(ThreadedRuntimeTest, RejectsUnsortedWorkload) {
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = sched::make_self_adjusting_quantum(usec(200), msec(5));
  std::vector<tasks::Task> wl(2);
  wl[0].id = 0;
  wl[0].arrival = SimTime{1000};
  wl[0].processing = msec(1);
  wl[0].deadline = SimTime{500000};
  wl[0].affinity.add(0);
  wl[1] = wl[0];
  wl[1].id = 1;
  wl[1].arrival = SimTime{0};
  EXPECT_THROW(run_live(*algo, *q, fast_config(2), wl), InvalidArgument);
}

TEST(ThreadedRuntimeTest, BooksBalanceOnBurstyWorkload) {
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = sched::make_self_adjusting_quantum(usec(200), msec(10));
  tasks::WorkloadConfig wc;
  wc.num_tasks = 60;
  wc.num_processors = 4;
  wc.processing_min = usec(200);
  wc.processing_max = msec(2);
  wc.affinity_degree = 0.5;
  wc.laxity_min = 30.0;  // generous: wall clock jitter tolerated
  wc.laxity_max = 60.0;
  Xoshiro256ss rng(3);
  const auto wl = tasks::generate_workload(wc, rng);
  const RunMetrics r = run_live(*algo, *q, fast_config(4), wl);
  EXPECT_EQ(r.total_tasks, 60u);
  EXPECT_EQ(r.deadline_hits + r.exec_misses, r.scheduled);
  EXPECT_LE(r.scheduled + r.culled, r.total_tasks);
  EXPECT_GT(r.phases, 0u);
  EXPECT_GT(r.vertices_generated, 0u);
  // With 30-60x laxity virtually everything schedulable should be on time.
  EXPECT_GT(r.hit_ratio(), 0.8);
}

TEST(ThreadedRuntimeTest, GangWorkloadBooksBalanceLive) {
  // Gangs hold k mailboxes at once: the all-or-nothing reservation must
  // neither deadlock the host nor lose a task, and with generous laxity
  // the terminal books balance exactly like the singleton case.
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = sched::make_self_adjusting_quantum(usec(200), msec(10));
  tasks::WorkloadConfig wc;
  wc.num_tasks = 40;
  wc.num_processors = 4;
  wc.processing_min = usec(200);
  wc.processing_max = msec(2);
  wc.affinity_degree = 1.0;
  wc.laxity_min = 30.0;
  wc.laxity_max = 60.0;
  wc.gang_fraction = 0.5;
  wc.gang_max_workers = 3;
  Xoshiro256ss rng(11);
  const auto wl = tasks::generate_workload(wc, rng);
  bool any_gang = false;
  for (const auto& t : wl) any_gang = any_gang || t.workers_required > 1;
  ASSERT_TRUE(any_gang);
  const RunMetrics r = run_live(*algo, *q, fast_config(4), wl);
  EXPECT_EQ(r.total_tasks, 40u);
  EXPECT_EQ(r.deadline_hits + r.exec_misses, r.scheduled);
  EXPECT_LE(r.scheduled + r.culled, r.total_tasks);
  EXPECT_GT(r.hit_ratio(), 0.8);
}

TEST(ThreadedRuntimeTest, PoissonArrivalsDrainCompletely) {
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = sched::make_self_adjusting_quantum(usec(200), msec(10));
  tasks::WorkloadConfig wc;
  wc.num_tasks = 40;
  wc.num_processors = 3;
  wc.arrival = tasks::ArrivalPattern::kPoisson;
  wc.mean_interarrival = usec(400);
  wc.processing_min = usec(100);
  wc.processing_max = msec(1);
  wc.affinity_degree = 0.6;
  wc.laxity_min = 50.0;
  wc.laxity_max = 100.0;
  Xoshiro256ss rng(4);
  const auto wl = tasks::generate_workload(wc, rng);
  const RunMetrics r = run_live(*algo, *q, fast_config(3), wl);
  EXPECT_EQ(r.scheduled + r.culled, r.total_tasks);
  EXPECT_GT(r.finish_time, SimTime::zero());
}

TEST(ThreadedRuntimeTest, DColsAlsoRunsLive) {
  const auto algo = sched::AlgorithmRegistry::builtin().make("d_cols");
  const auto q = sched::make_self_adjusting_quantum(usec(200), msec(10));
  tasks::WorkloadConfig wc;
  wc.num_tasks = 30;
  wc.num_processors = 2;
  wc.processing_min = usec(200);
  wc.processing_max = msec(1);
  wc.laxity_min = 40.0;
  wc.laxity_max = 80.0;
  Xoshiro256ss rng(5);
  const auto wl = tasks::generate_workload(wc, rng);
  const RunMetrics r = run_live(*algo, *q, fast_config(2), wl);
  EXPECT_EQ(r.deadline_hits + r.exec_misses, r.scheduled);
  EXPECT_GT(r.scheduled, 0u);
}

TEST(ThreadedRuntimeTest, TimeScaleShrinksWallTime) {
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = sched::make_self_adjusting_quantum(usec(200), msec(10));
  tasks::WorkloadConfig wc;
  wc.num_tasks = 20;
  wc.num_processors = 2;
  wc.processing_min = msec(2);
  wc.processing_max = msec(4);
  wc.laxity_min = 50.0;
  wc.laxity_max = 50.0;
  Xoshiro256ss rng(6);
  const auto wl = tasks::generate_workload(wc, rng);
  RuntimeConfig cfg = fast_config(2);
  cfg.time_scale = 0.25;  // execute at 4x speed
  const RunMetrics r = run_live(*algo, *q, cfg, wl);
  EXPECT_EQ(r.scheduled + r.culled, r.total_tasks);
  // 20 tasks * <=4ms at scale 0.25 over 2 workers: well under a second.
  EXPECT_LT(r.finish_time - SimTime::zero(), sec(2));
}

TEST(ThreadedRuntimeTest, MailboxOverflowIsRecoveredNotLost) {
  // One worker with a single-slot mailbox and a burst of 16 tasks: the
  // host must NOT block behind the full mailbox — refused deliveries are
  // counted and readmitted, and with two-minute deadlines every task is
  // eventually executed (or, if its delivery budget runs out, explicitly
  // rejected). No task may simply vanish.
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = sched::make_self_adjusting_quantum(usec(200), msec(10));
  std::vector<tasks::Task> wl;
  for (std::uint32_t i = 0; i < 16; ++i) {
    tasks::Task t;
    t.id = i;
    t.arrival = SimTime::zero();
    t.processing = msec(5);
    t.deadline = SimTime::zero() + sec(120);
    t.affinity.add(0);
    wl.push_back(t);
  }
  RuntimeConfig cfg = fast_config(1);
  cfg.mailbox_capacity = 1;
  // A delivery budget of 0: readmit until delivered or culled.
  const RunMetrics r =
      run_live(*algo, *q, cfg, wl, /*max_delivery_attempts=*/0);
  EXPECT_GT(r.overflow_drops, 0u);
  EXPECT_GT(r.readmissions, 0u);
  EXPECT_EQ(r.deadline_hits + r.exec_misses, r.scheduled);
  // Conservation: every offered task reached a terminal state.
  EXPECT_EQ(r.deadline_hits + r.exec_misses + r.culled + r.rejected,
            r.total_tasks);
  EXPECT_EQ(r.rejected, 0u);  // unbounded attempts: nothing force-retired
  EXPECT_EQ(r.scheduled + r.culled, r.total_tasks);
}

TEST(ThreadedRuntimeTest, ExhaustedDeliveryBudgetRejectsExplicitly) {
  // With readmission disabled (budget of one attempt), a refused delivery
  // is retired as an explicit rejection — still never a silent loss.
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = sched::make_self_adjusting_quantum(usec(200), msec(10));
  std::vector<tasks::Task> wl;
  for (std::uint32_t i = 0; i < 12; ++i) {
    tasks::Task t;
    t.id = i;
    t.arrival = SimTime::zero();
    t.processing = msec(5);
    t.deadline = SimTime::zero() + sec(120);
    t.affinity.add(0);
    wl.push_back(t);
  }
  RuntimeConfig cfg = fast_config(1);
  cfg.mailbox_capacity = 1;
  cfg.delivery_retries = 0;  // and no in-backend backoff either
  // A delivery budget of 1: no readmission.
  const RunMetrics r =
      run_live(*algo, *q, cfg, wl, /*max_delivery_attempts=*/1);
  EXPECT_GT(r.rejected, 0u);
  EXPECT_EQ(r.readmissions, 0u);
  EXPECT_EQ(r.overflow_drops, r.rejected);  // one refusal retires a task
  EXPECT_EQ(r.deadline_hits + r.exec_misses + r.culled + r.rejected,
            r.total_tasks);
}

}  // namespace
}  // namespace rtds::runtime
