// Cross-backend task conservation: no workload, overload or backend may
// lose a task silently. Every offered task must end in exactly one terminal
// state — deadline_hit, exec_miss, culled or rejected — and the aggregate
// metrics must balance: total == hits + exec_misses + culled + rejected.
//
// The flood test is the regression for the PR-1 overflow bug: with a
// single-slot mailbox the host used to retire refused assignments as if
// they had been delivered, so they vanished from every counter. Against
// that behavior these tests fail; with backpressure + readmission +
// ledger they pass on SimBackend, ThreadedBackend and run_partitioned.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "machine/cluster.h"
#include "runtime/threaded_backend.h"
#include "sched/backend.h"
#include "sched/ledger.h"
#include "sched/partitioned.h"
#include "sched/pipeline.h"
#include "sched/quantum.h"
#include "sched/registry.h"
#include "sim/simulator.h"
#include "tasks/workload.h"

namespace rtds {
namespace {

using sched::RunMetrics;
using sched::TaskLedger;

void expect_conserved(const RunMetrics& m, const TaskLedger& ledger,
                      std::size_t workload_size) {
  EXPECT_EQ(m.total_tasks, workload_size);
  EXPECT_EQ(m.deadline_hits + m.exec_misses + m.culled + m.rejected,
            m.total_tasks);
  EXPECT_TRUE(ledger.counts().conserved());
  EXPECT_EQ(ledger.counts().total, workload_size);
  // Every task reached a terminal state, so none is left in the ledger.
  EXPECT_EQ(ledger.size(), 0u);
}

std::vector<tasks::Task> random_workload(std::uint64_t seed,
                                         std::uint32_t num_tasks,
                                         std::uint32_t workers,
                                         double laxity_min,
                                         double laxity_max) {
  tasks::WorkloadConfig wc;
  wc.num_tasks = num_tasks;
  wc.num_processors = workers;
  wc.arrival = tasks::ArrivalPattern::kPoisson;
  wc.mean_interarrival = usec(300);
  wc.processing_min = usec(200);
  wc.processing_max = msec(2);
  wc.affinity_degree = 0.5;
  wc.laxity_min = laxity_min;
  wc.laxity_max = laxity_max;
  Xoshiro256ss rng(seed);
  return tasks::generate_workload(wc, rng);
}

TEST(ConservationTest, SimBackendConservesOnRandomWorkloads) {
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = sched::make_self_adjusting_quantum(usec(200), msec(10));
  const sched::PhasePipeline pipeline(*algo, *q);
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    // Tight laxity so culling genuinely happens on some seeds.
    const auto wl = random_workload(seed, 120, 4, 1.5, 6.0);
    machine::Cluster cluster(4,
                             machine::Interconnect::cut_through(4, msec(1)));
    sim::Simulator sim;
    sched::SimBackend backend(cluster, sim);
    TaskLedger ledger;
    const RunMetrics m = pipeline.run(wl, backend, nullptr, &ledger);
    expect_conserved(m, ledger, wl.size());
    EXPECT_EQ(m.overflow_drops, 0u);  // simulated queues are unbounded
    EXPECT_EQ(m.rejected, 0u);
  }
}

TEST(ConservationTest, RunPartitionedConservesPerShardAndInTotal) {
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = sched::make_self_adjusting_quantum(usec(200), msec(10));
  sched::PartitionedConfig cfg;
  cfg.num_shards = 2;
  cfg.total_workers = 8;
  cfg.comm_cost = msec(2);
  for (std::uint64_t seed : {21u, 22u}) {
    const auto wl = random_workload(seed, 150, 8, 2.0, 8.0);
    const sched::PartitionedMetrics pm =
        sched::run_partitioned(*algo, *q, cfg, wl);
    EXPECT_EQ(pm.total_tasks(), wl.size());
    EXPECT_TRUE(pm.conserved());
    for (const RunMetrics& m : pm.shards) {
      EXPECT_EQ(m.deadline_hits + m.exec_misses + m.culled + m.rejected,
                m.total_tasks);
    }
  }
}

TEST(ConservationTest, ThreadedBackendConservesOnRandomWorkloads) {
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = sched::make_self_adjusting_quantum(usec(200), msec(10));
  for (std::uint64_t seed : {31u, 32u}) {
    const auto wl = random_workload(seed, 60, 3, 30.0, 60.0);
    runtime::RuntimeConfig cfg;
    cfg.num_workers = 3;
    cfg.comm_cost = msec(1);
    cfg.time_scale = 0.05;
    sched::PipelineConfig pcfg;
    pcfg.phase_overhead = SimDuration::zero();
    const sched::PhasePipeline pipeline(*algo, *q, pcfg);
    runtime::ThreadedBackend backend(cfg);
    TaskLedger ledger;
    const RunMetrics m = pipeline.run(wl, backend, nullptr, &ledger);
    expect_conserved(m, ledger, wl.size());
  }
}

TEST(ConservationTest, FloodedTinyMailboxLosesNoTask) {
  // Regression for the PR-1 silent-loss bug: a single-slot mailbox under a
  // 24-task burst forces overflow; every refused task must later be
  // executed or explicitly rejected — never unaccounted.
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = sched::make_self_adjusting_quantum(usec(200), msec(10));
  std::vector<tasks::Task> wl;
  for (std::uint32_t i = 0; i < 24; ++i) {
    tasks::Task t;
    t.id = i;
    t.arrival = SimTime::zero();
    t.processing = msec(4);
    t.deadline = SimTime::zero() + sec(120);
    t.affinity.add(i % 2);
    wl.push_back(t);
  }
  runtime::RuntimeConfig cfg;
  cfg.num_workers = 2;
  cfg.comm_cost = msec(1);
  cfg.mailbox_capacity = 1;
  sched::PipelineConfig pcfg;
  pcfg.phase_overhead = SimDuration::zero();
  pcfg.max_delivery_attempts = 0;  // readmit until delivered or culled
  const sched::PhasePipeline pipeline(*algo, *q, pcfg);
  runtime::ThreadedBackend backend(cfg);
  TaskLedger ledger;
  const RunMetrics m = pipeline.run(wl, backend, nullptr, &ledger);

  EXPECT_GT(m.overflow_drops, 0u);  // the overload genuinely happened
  EXPECT_GT(m.readmissions, 0u);
  EXPECT_GT(m.backpressure_waits, 0u);
  expect_conserved(m, ledger, wl.size());
  // With two-minute deadlines nothing should have been lost to the flood:
  // every task was eventually executed.
  EXPECT_EQ(m.scheduled, m.total_tasks);
  EXPECT_EQ(m.deadline_hits, m.total_tasks);
}

TEST(ConservationTest, BoundedAttemptsRejectInsteadOfLosing) {
  // Same flood with a delivery budget of 2: some tasks are retired as
  // explicit rejections, and the books still balance exactly.
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = sched::make_self_adjusting_quantum(usec(200), msec(10));
  std::vector<tasks::Task> wl;
  for (std::uint32_t i = 0; i < 24; ++i) {
    tasks::Task t;
    t.id = i;
    t.arrival = SimTime::zero();
    t.processing = msec(4);
    t.deadline = SimTime::zero() + sec(120);
    t.affinity.add(0);
    wl.push_back(t);
  }
  runtime::RuntimeConfig cfg;
  cfg.num_workers = 1;
  cfg.comm_cost = msec(1);
  cfg.mailbox_capacity = 1;
  cfg.delivery_retries = 0;
  sched::PipelineConfig pcfg;
  pcfg.phase_overhead = SimDuration::zero();
  pcfg.max_delivery_attempts = 2;
  pcfg.delivery_backpressure = SimDuration::zero();  // hot loop on purpose
  const sched::PhasePipeline pipeline(*algo, *q, pcfg);
  runtime::ThreadedBackend backend(cfg);
  TaskLedger ledger;
  const RunMetrics m = pipeline.run(wl, backend, nullptr, &ledger);

  EXPECT_GT(m.rejected, 0u);
  expect_conserved(m, ledger, wl.size());
  EXPECT_EQ(ledger.counts().rejected, m.rejected);
}

}  // namespace
}  // namespace rtds
