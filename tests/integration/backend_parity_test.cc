// Cross-backend parity: the ONE PhasePipeline must behave the same no
// matter which ExecutionBackend it drives. SimBackend vs ThreadedBackend: a
// deterministic workload (all tasks present at t=0, laxity far beyond any
// wall-clock jitter, time_scale << 1) must yield identical scheduled/culled
// counts, because the phase decisions depend only on the batch and the
// (initially idle) loads, which both backends present identically.
#include <gtest/gtest.h>

#include <vector>

#include "machine/cluster.h"
#include "runtime/threaded_backend.h"
#include "sched/backend.h"
#include "sched/pipeline.h"
#include "sched/quantum.h"
#include "sched/registry.h"
#include "sim/simulator.h"
#include "tasks/task.h"

namespace rtds {
namespace {

using sched::RunMetrics;
using tasks::AffinitySet;
using tasks::Task;

constexpr std::uint32_t kWorkers = 3;

/// All tasks arrive at t=0 with enormous laxity: every backend sees the
/// same single initial batch, schedules everything in the first phases and
/// culls nothing, regardless of clock jitter.
std::vector<Task> parity_workload() {
  std::vector<Task> wl;
  for (std::uint32_t i = 0; i < 12; ++i) {
    Task t;
    t.id = i;
    t.arrival = SimTime::zero();
    t.processing = msec(1 + (i % 3));
    t.deadline = SimTime::zero() + sec(120);  // >> any wall-clock noise
    t.affinity = AffinitySet::single(i % kWorkers);
    wl.push_back(t);
  }
  return wl;
}

/// The threaded deployment of the same pipeline: the backend's wall clock
/// pays for every phase as it runs, so no synthetic per-phase overhead.
RunMetrics run_threaded_backend(const sched::PhaseAlgorithm& algo,
                                const sched::QuantumPolicy& quantum,
                                const std::vector<Task>& wl,
                                sched::PhaseObserver* observer = nullptr) {
  sched::PipelineConfig pcfg;
  pcfg.phase_overhead = SimDuration::zero();
  const sched::PhasePipeline pipeline(algo, quantum, pcfg);
  runtime::RuntimeConfig cfg;
  cfg.num_workers = kWorkers;
  cfg.comm_cost = msec(1);
  cfg.time_scale = 0.01;  // execute 100x faster than nominal
  runtime::ThreadedBackend backend(cfg);
  return pipeline.run(wl, backend, observer);
}

TEST(BackendParityTest, SimAndThreadedAgreeOnScheduledAndCulled) {
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = sched::make_self_adjusting_quantum(usec(200), msec(10));
  const std::vector<Task> wl = parity_workload();

  machine::Cluster cluster(
      kWorkers, machine::Interconnect::cut_through(kWorkers, msec(1)));
  sim::Simulator sim;
  const sched::PhasePipeline pipeline(*algo, *q);
  sched::SimBackend sim_backend(cluster, sim);
  const RunMetrics sim_m = pipeline.run(wl, sim_backend);

  const RunMetrics thr_m = run_threaded_backend(*algo, *q, wl);

  EXPECT_EQ(sim_m.total_tasks, wl.size());
  EXPECT_EQ(sim_m.scheduled, wl.size());
  EXPECT_EQ(sim_m.culled, 0u);
  EXPECT_EQ(thr_m.scheduled, sim_m.scheduled);
  EXPECT_EQ(thr_m.culled, sim_m.culled);
  EXPECT_EQ(thr_m.overflow_drops, 0u);
  EXPECT_EQ(thr_m.readmissions, 0u);
  EXPECT_EQ(thr_m.rejected, 0u);
  // With two-minute deadlines both deployments also hit everything.
  EXPECT_EQ(sim_m.deadline_hits, wl.size());
  EXPECT_EQ(thr_m.deadline_hits, wl.size());
}

TEST(BackendParityTest, ObserverSeesPhasesOnEveryBackend) {
  // Phase tracing used to be a DES-only feature; through the unified
  // pipeline the threaded deployment reports phases identically.
  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = sched::make_self_adjusting_quantum(usec(200), msec(10));
  const std::vector<Task> wl = parity_workload();

  sched::PhaseTraceRecorder sim_trace;
  machine::Cluster cluster(
      kWorkers, machine::Interconnect::cut_through(kWorkers, msec(1)));
  sim::Simulator sim;
  const sched::PhasePipeline pipeline(*algo, *q);
  sched::SimBackend sim_backend(cluster, sim);
  const RunMetrics sim_m = pipeline.run(wl, sim_backend, &sim_trace);
  EXPECT_EQ(sim_trace.records().size(), sim_m.phases);

  sched::PhaseTraceRecorder thr_trace;
  const RunMetrics thr_m = run_threaded_backend(*algo, *q, wl, &thr_trace);
  EXPECT_EQ(thr_trace.records().size(), thr_m.phases);
  ASSERT_FALSE(thr_trace.records().empty());
  EXPECT_EQ(thr_trace.records().front().batch_size, wl.size());
}

}  // namespace
}  // namespace rtds
