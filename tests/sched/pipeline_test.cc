// PhasePipeline over a SimBackend: the DES deployment every experiment,
// bench and example runs. The suite keeps its historic name so that the
// test ids stay stable.
#include "sched/pipeline.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "sched/backend.h"
#include "sched/registry.h"
#include "tasks/workload.h"

namespace rtds::sched {
namespace {

using tasks::AffinitySet;

Task make_task(std::uint32_t id, SimTime arrival, SimDuration p, SimTime d,
               AffinitySet affinity) {
  Task t;
  t.id = id;
  t.arrival = arrival;
  t.processing = p;
  t.deadline = d;
  t.affinity = affinity;
  return t;
}

struct Fixture {
  explicit Fixture(std::uint32_t workers, SimDuration comm = msec(2))
      : cluster(workers, machine::Interconnect::cut_through(workers, comm),
                machine::ReclaimMode::kWorstCase,
                machine::CompletionLog::kKeep) {}

  /// One pipeline run on this fixture's cluster and clock; both keep their
  /// final state, so a second run continues where the first one stopped.
  RunMetrics run(const PhasePipeline& pipeline,
                 const std::vector<Task>& workload) {
    SimBackend backend(cluster, sim);
    return pipeline.run(workload, backend);
  }

  machine::Cluster cluster;
  sim::Simulator sim;
};

TEST(PhaseSchedulerTest, EmptyWorkload) {
  Fixture f(2);
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum();
  const PhasePipeline pipeline(*algo, *q);
  const RunMetrics m = f.run(pipeline, {});
  EXPECT_EQ(m.total_tasks, 0u);
  EXPECT_EQ(m.phases, 0u);
  EXPECT_DOUBLE_EQ(m.hit_ratio(), 1.0);
}

TEST(PhaseSchedulerTest, RejectsUnsortedWorkload) {
  Fixture f(2);
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum();
  const PhasePipeline pipeline(*algo, *q);
  std::vector<Task> wl{
      make_task(0, SimTime{100}, msec(1), SimTime{100000},
                AffinitySet::all(2)),
      make_task(1, SimTime{50}, msec(1), SimTime{100000},
                AffinitySet::all(2))};
  EXPECT_THROW(f.run(pipeline, wl), InvalidArgument);
}

TEST(PhaseSchedulerTest, RepeatedTaskIdThrowsWhetherPendingOrExecuted) {
  // The batch does not check ids; the task ledger does, on arrival, for
  // every id the run has ever seen.
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(10));
  const PhasePipeline pipeline(*algo, *q);
  const auto task = [](std::uint32_t id, SimTime arrival) {
    return make_task(id, arrival, msec(1), arrival + msec(60),
                     AffinitySet::all(2));
  };
  {
    // The second copy arrives while the first is still pending.
    Fixture f(2);
    const std::vector<Task> wl{task(0, SimTime::zero()),
                               task(1, SimTime::zero()),
                               task(0, SimTime::zero())};
    EXPECT_THROW(f.run(pipeline, wl), InvariantViolation);
  }
  {
    // The second copy arrives long after the first has executed.
    Fixture f(2);
    const std::vector<Task> wl{task(0, SimTime::zero()),
                               task(0, SimTime::zero() + msec(500))};
    EXPECT_THROW(f.run(pipeline, wl), InvariantViolation);
    ASSERT_EQ(f.cluster.log().size(), 1u);
    EXPECT_LE(f.cluster.log()[0].end, SimTime::zero() + msec(500));
  }
}

TEST(PhaseSchedulerTest, FailedRunDetachesItsLedger) {
  // The repeated id arrives at the second phase's start, before the
  // backend has reported the first copy's execution. The run's ledger dies
  // with the exception; the backend must not report into it afterwards.
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(10));
  const PhasePipeline pipeline(*algo, *q);
  Fixture f(2);
  SimBackend backend(f.cluster, f.sim);
  const std::vector<Task> wl{
      make_task(0, SimTime::zero(), msec(1), SimTime::zero() + msec(60),
                AffinitySet::all(2)),
      make_task(0, SimTime::zero() + usec(10), msec(1),
                SimTime::zero() + msec(60), AffinitySet::all(2))};
  EXPECT_THROW(pipeline.run(wl, backend), InvariantViolation);
  const BackendStats finals = backend.drain();
  EXPECT_EQ(finals.deadline_hits, 1u);
}

TEST(PhaseSchedulerTest, ValidatesVertexCost) {
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum();
  PipelineConfig cfg;
  cfg.vertex_generation_cost = SimDuration::zero();
  EXPECT_THROW(PhasePipeline(*algo, *q, cfg), InvalidArgument);
}

TEST(PhaseSchedulerTest, SingleTaskIsScheduledAndHits) {
  Fixture f(2);
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(10));
  const PhasePipeline pipeline(*algo, *q);
  const std::vector<Task> wl{make_task(
      0, SimTime::zero(), msec(5), SimTime::zero() + msec(60),
      AffinitySet::single(1))};
  const RunMetrics m = f.run(pipeline, wl);
  EXPECT_EQ(m.scheduled, 1u);
  EXPECT_EQ(m.deadline_hits, 1u);
  EXPECT_EQ(m.exec_misses, 0u);
  EXPECT_EQ(m.culled, 0u);
  EXPECT_DOUBLE_EQ(m.hit_ratio(), 1.0);
  // The task ran on its affine worker (comm cost would still fit, but the
  // cost function prefers the cheaper placement).
  ASSERT_EQ(f.cluster.log().size(), 1u);
  EXPECT_EQ(f.cluster.log()[0].worker, 1u);
}

TEST(PhaseSchedulerTest, SchedulingOverheadDelaysExecution) {
  // The first delivery cannot happen before one phase has been paid for.
  Fixture f(1, SimDuration::zero());
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(10));
  PipelineConfig cfg;
  cfg.vertex_generation_cost = usec(10);
  const PhasePipeline pipeline(*algo, *q, cfg);
  const std::vector<Task> wl{make_task(0, SimTime::zero(), msec(1),
                                       SimTime::zero() + msec(50),
                                       AffinitySet::single(0))};
  const RunMetrics m = f.run(pipeline, wl);
  EXPECT_EQ(m.deadline_hits, 1u);
  ASSERT_EQ(f.cluster.log().size(), 1u);
  EXPECT_GT(f.cluster.log()[0].start, SimTime::zero());
  EXPECT_EQ(m.scheduling_time,
            cfg.vertex_generation_cost *
                    std::int64_t(m.vertices_generated) +
                cfg.phase_overhead * std::int64_t(m.phases));
}

TEST(PhaseSchedulerTest, UnreachableTaskIsCulledNotExecuted) {
  Fixture f(2);
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(10));
  const PhasePipeline pipeline(*algo, *q);
  // Deadline < processing: unreachable from the start.
  const std::vector<Task> wl{make_task(0, SimTime::zero(), msec(10),
                                       SimTime::zero() + msec(2),
                                       AffinitySet::all(2))};
  const RunMetrics m = f.run(pipeline, wl);
  EXPECT_EQ(m.culled, 1u);
  EXPECT_EQ(m.scheduled, 0u);
  EXPECT_EQ(f.cluster.stats().executed, 0u);
}

TEST(PhaseSchedulerTest, TaskInfeasibleOnlyByCommCostGetsAffineWorker) {
  // Tight deadline, huge C: only the affine worker works.
  Fixture f(4, sec(10));
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(5));
  const PhasePipeline pipeline(*algo, *q);
  const std::vector<Task> wl{make_task(0, SimTime::zero(), msec(5),
                                       SimTime::zero() + msec(60),
                                       AffinitySet::single(3))};
  const RunMetrics m = f.run(pipeline, wl);
  EXPECT_EQ(m.deadline_hits, 1u);
  EXPECT_EQ(f.cluster.log()[0].worker, 3u);
}

TEST(PhaseSchedulerTest, LateArrivalsWakeTheScheduler) {
  Fixture f(2);
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(10));
  const PhasePipeline pipeline(*algo, *q);
  std::vector<Task> wl;
  wl.push_back(make_task(0, SimTime::zero(), msec(2),
                         SimTime::zero() + msec(40), AffinitySet::all(2)));
  wl.push_back(make_task(1, SimTime::zero() + msec(100), msec(2),
                         SimTime::zero() + msec(140), AffinitySet::all(2)));
  const RunMetrics m = f.run(pipeline, wl);
  EXPECT_EQ(m.deadline_hits, 2u);
  // Second task cannot start before it arrives.
  ASSERT_EQ(f.cluster.log().size(), 2u);
  EXPECT_GE(f.cluster.log()[1].start, SimTime::zero() + msec(100));
}

TEST(PhaseSchedulerTest, ScheduledTasksNeverReenterBatches) {
  // If a task were double-delivered the executed count would exceed the
  // scheduled count; run a busy workload and check the books balance.
  Fixture f(3);
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(5));
  const PhasePipeline pipeline(*algo, *q);
  tasks::WorkloadConfig wc;
  wc.num_tasks = 150;
  wc.num_processors = 3;
  wc.processing_min = usec(500);
  wc.processing_max = msec(3);
  wc.laxity_min = 4.0;
  wc.laxity_max = 12.0;
  Xoshiro256ss rng(5);
  const auto wl = tasks::generate_workload(wc, rng);
  const RunMetrics m = f.run(pipeline, wl);
  EXPECT_EQ(f.cluster.stats().executed, m.scheduled);
  EXPECT_LE(m.scheduled + m.culled, m.total_tasks);
  EXPECT_EQ(m.scheduled, m.deadline_hits + m.exec_misses);
}

TEST(PhaseSchedulerTest, MetricsAreDeltasOnReusedCluster) {
  Fixture f(2);
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(10));
  const PhasePipeline pipeline(*algo, *q);
  const std::vector<Task> wl1{make_task(0, SimTime::zero(), msec(2),
                                        SimTime::zero() + msec(40),
                                        AffinitySet::all(2))};
  const RunMetrics m1 = f.run(pipeline, wl1);
  EXPECT_EQ(m1.deadline_hits, 1u);
  // Second run on the same cluster/sim: its own hit counts only.
  const std::vector<Task> wl2{
      make_task(10, f.sim.now(), msec(2), f.sim.now() + msec(40),
                AffinitySet::all(2)),
      make_task(11, f.sim.now(), msec(2), f.sim.now() + msec(40),
                AffinitySet::all(2))};
  const RunMetrics m2 = f.run(pipeline, wl2);
  EXPECT_EQ(m2.total_tasks, 2u);
  EXPECT_EQ(m2.deadline_hits, 2u);
}

TEST(PhaseSchedulerTest, FixedQuantumAlsoDrivesPipeline) {
  Fixture f(2);
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_fixed_quantum(msec(2));
  const PhasePipeline pipeline(*algo, *q);
  tasks::WorkloadConfig wc;
  wc.num_tasks = 40;
  wc.num_processors = 2;
  wc.laxity_min = 6.0;
  wc.laxity_max = 10.0;
  Xoshiro256ss rng(6);
  const auto wl = tasks::generate_workload(wc, rng);
  const RunMetrics m = f.run(pipeline, wl);
  EXPECT_GT(m.phases, 0u);
  EXPECT_EQ(m.exec_misses, 0u);
  // Each phase's allocation is exactly the fixed quantum.
  EXPECT_EQ(m.allocated_quantum, msec(2) * std::int64_t(m.phases));
}

TEST(PhaseSchedulerTest, GreedyBaselinesRunToCompletion) {
  for (const char* spec : {"edf_ff", "edf_bf"}) {
    Fixture f(3);
    const auto algo = AlgorithmRegistry::builtin().make(spec);
    const auto q = make_self_adjusting_quantum(usec(100), msec(5));
    const PhasePipeline pipeline(*algo, *q);
    tasks::WorkloadConfig wc;
    wc.num_tasks = 100;
    wc.num_processors = 3;
    wc.laxity_min = 3.0;
    wc.laxity_max = 10.0;
    Xoshiro256ss rng(7);
    const auto wl = tasks::generate_workload(wc, rng);
    const RunMetrics m = f.run(pipeline, wl);
    EXPECT_EQ(m.exec_misses, 0u);
    EXPECT_EQ(m.scheduled + m.culled, m.total_tasks);
  }
}

TEST(PhaseSchedulerTest, ObservedRunStillTimesTheSearch) {
  // The pipeline reads the clock around the search only for the phase
  // record, so a run with an observer must still carry the measurement.
  Fixture f(3);
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(5));
  const PhasePipeline pipeline(*algo, *q);
  tasks::WorkloadConfig wc;
  wc.num_tasks = 100;
  wc.num_processors = 3;
  Xoshiro256ss rng(9);
  const auto wl = tasks::generate_workload(wc, rng);
  PhaseTraceRecorder recorder;
  SimBackend backend(f.cluster, f.sim);
  const RunMetrics m = pipeline.run(wl, backend, &recorder);
  ASSERT_EQ(recorder.records().size(), m.phases);
  std::uint64_t search_wall_ns = 0;
  for (const PhaseRecord& r : recorder.records()) {
    search_wall_ns += r.search_wall_ns;
  }
  EXPECT_GT(search_wall_ns, 0u);
}

TEST(PhaseSchedulerTest, HitRatioBetweenZeroAndOne) {
  Fixture f(4);
  const auto algo = AlgorithmRegistry::builtin().make("d_cols");
  const auto q = make_self_adjusting_quantum(usec(100), msec(5));
  const PhasePipeline pipeline(*algo, *q);
  tasks::WorkloadConfig wc;
  wc.num_tasks = 120;
  wc.num_processors = 4;
  wc.laxity_min = 2.0;
  wc.laxity_max = 6.0;
  Xoshiro256ss rng(8);
  const auto wl = tasks::generate_workload(wc, rng);
  const RunMetrics m = f.run(pipeline, wl);
  EXPECT_GE(m.hit_ratio(), 0.0);
  EXPECT_LE(m.hit_ratio(), 1.0);
  EXPECT_EQ(m.misses() + m.deadline_hits, m.total_tasks);
}

}  // namespace
}  // namespace rtds::sched
