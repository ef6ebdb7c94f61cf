// Property tests for the Sec. 4.2 quantum criterion (Fig. 3):
//
//   (1) allocate(Min_Slack, Min_Load) is exactly
//       clamp(max(Min_Slack, Min_Load), min_quantum, max_quantum) —
//       randomized over the input domain, not just a few points;
//   (2) in a full pipeline run, every phase's Q_s(j) respects the paper's
//       bound Q_s <= max(Min_Slack, Min_Load) whenever the bound is above
//       the minimum-progress clamp;
//   (3) the quantum_floor_overrides counter fires exactly when the progress
//       floor (phase_overhead + vertex_cost) binds — no over- or
//       under-counting, cross-checked phase by phase against the trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "machine/cluster.h"
#include "sched/backend.h"
#include "sched/pipeline.h"
#include "sched/quantum.h"
#include "sched/registry.h"
#include "sched/trace.h"
#include "sim/simulator.h"
#include "tasks/task.h"
#include "tasks/workload.h"

namespace rtds {
namespace {

using sched::RunMetrics;

TEST(QuantumPropertyTest, AllocateIsClampOfMaxSlackLoad) {
  Xoshiro256ss rng(derive_seed(0xA10C, stream_id("quantum.property"), 0));
  for (int i = 0; i < 2000; ++i) {
    const SimDuration min_q = usec(rng.uniform_int(0, 5000));
    const SimDuration max_q = min_q + usec(rng.uniform_int(0, 50000));
    const sched::SelfAdjustingQuantum policy(min_q, max_q);
    const SimDuration slack = usec(rng.uniform_int(0, 100000));
    const SimDuration load = usec(rng.uniform_int(0, 100000));
    const SimDuration got = policy.allocate(slack, load);
    const SimDuration bound = std::max(slack, load);
    const SimDuration expected = std::clamp(bound, min_q, max_q);
    ASSERT_EQ(got, expected)
        << "slack " << slack.us << "us load " << load.us << "us clamp ["
        << min_q.us << ", " << max_q.us << "]us";
    // The paper's inequality, in the regime where the clamp is not binding.
    if (bound >= min_q) {
      ASSERT_LE(got.us, bound.us);
    }
  }
}

/// Runs a generated workload through the pipeline and returns the trace +
/// metrics for phase-by-phase auditing.
std::pair<std::vector<sched::PhaseRecord>, RunMetrics> traced_run(
    const sched::QuantumPolicy& quantum, const sched::PipelineConfig& config,
    std::uint64_t seed) {
  constexpr std::uint32_t kWorkers = 4;
  tasks::WorkloadConfig wc;
  wc.num_tasks = 60;
  wc.num_processors = kWorkers;
  wc.laxity_min = 2.0;
  wc.laxity_max = 10.0;
  Xoshiro256ss rng(seed);
  const auto wl = tasks::generate_workload(wc, rng);

  const auto algo = sched::AlgorithmRegistry::builtin().make("rt_sads");
  machine::Cluster cluster(
      kWorkers, machine::Interconnect::cut_through(kWorkers, msec(1)));
  sim::Simulator sim;
  sched::SimBackend backend(cluster, sim);
  sched::PhaseTraceRecorder trace;
  const sched::PhasePipeline pipeline(*algo, quantum, config);
  const RunMetrics m = pipeline.run(wl, backend, &trace);
  return {trace.records(), m};
}

TEST(QuantumPropertyTest, PipelineQuantaRespectPaperBound) {
  const SimDuration min_q = usec(200);
  const SimDuration max_q = msec(10);
  const auto quantum = sched::make_self_adjusting_quantum(min_q, max_q);
  sched::PipelineConfig config;  // defaults: floor = 50us + 10us << min_q
  for (std::uint64_t rep = 0; rep < 10; ++rep) {
    const auto [phases, metrics] = traced_run(
        *quantum, config, derive_seed(0xB0B0, stream_id("quantum.bound"), rep));
    ASSERT_FALSE(phases.empty());
    for (const sched::PhaseRecord& r : phases) {
      const SimDuration bound = std::max(r.min_slack, r.min_load);
      ASSERT_EQ(r.quantum, std::clamp(bound, min_q, max_q))
          << "phase " << r.index;
      if (!r.quantum_floor_override && bound >= min_q) {
        ASSERT_LE(r.quantum.us, bound.us) << "phase " << r.index;
      }
    }
    EXPECT_EQ(metrics.quantum_floor_overrides, 0u)
        << "floor cannot bind when min_quantum exceeds it";
  }
}

TEST(QuantumPropertyTest, FloorOverrideCounterFiresExactlyWhenFloorBinds) {
  // A fixed quantum BELOW the progress floor forces the override on every
  // phase; the counter and the per-phase flags must agree exactly.
  sched::PipelineConfig config;
  config.vertex_generation_cost = usec(10);
  config.phase_overhead = usec(50);
  const SimDuration floor =
      config.phase_overhead + config.vertex_generation_cost;
  const auto tiny = sched::make_fixed_quantum(usec(20));  // 20us < 60us floor
  const auto [phases, metrics] = traced_run(
      *tiny, config, derive_seed(0xF10, stream_id("quantum.floor"), 0));
  ASSERT_FALSE(phases.empty());
  std::uint64_t overrides = 0;
  for (const sched::PhaseRecord& r : phases) {
    ASSERT_TRUE(r.quantum_floor_override) << "phase " << r.index;
    ASSERT_EQ(r.quantum, floor) << "phase " << r.index;
    ++overrides;
  }
  EXPECT_EQ(metrics.quantum_floor_overrides, overrides);
  EXPECT_EQ(metrics.quantum_floor_overrides, metrics.phases);

  // And a fixed quantum above the floor never fires it.
  const auto roomy = sched::make_fixed_quantum(msec(2));
  const auto [phases2, metrics2] = traced_run(
      *roomy, config, derive_seed(0xF10, stream_id("quantum.floor"), 1));
  EXPECT_EQ(metrics2.quantum_floor_overrides, 0u);
  for (const sched::PhaseRecord& r : phases2) {
    ASSERT_FALSE(r.quantum_floor_override) << "phase " << r.index;
  }
}

TEST(QuantumPropertyTest, SelfAdjustingFloorOverrideUnderStarvedClamp) {
  // Self-adjusting policy with max_quantum below the floor: every phase's
  // allocation is raised to the floor and flagged.
  sched::PipelineConfig config;
  config.vertex_generation_cost = usec(10);
  config.phase_overhead = usec(100);
  const SimDuration floor =
      config.phase_overhead + config.vertex_generation_cost;
  const auto starved = sched::make_self_adjusting_quantum(usec(1), usec(40));
  const auto [phases, metrics] = traced_run(
      *starved, config, derive_seed(0xF10, stream_id("quantum.floor"), 2));
  ASSERT_FALSE(phases.empty());
  for (const sched::PhaseRecord& r : phases) {
    ASSERT_TRUE(r.quantum_floor_override) << "phase " << r.index;
    ASSERT_EQ(r.quantum, floor) << "phase " << r.index;
  }
  EXPECT_EQ(metrics.quantum_floor_overrides, metrics.phases);
}

}  // namespace
}  // namespace rtds
