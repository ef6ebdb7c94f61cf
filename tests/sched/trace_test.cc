#include "sched/trace.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.h"
#include "machine/cluster.h"
#include "sched/backend.h"
#include "sched/pipeline.h"
#include "sched/registry.h"
#include "sim/simulator.h"
#include "tasks/workload.h"

namespace rtds::sched {
namespace {

struct TracedRun {
  RunMetrics metrics;
  PhaseTraceRecorder trace;
};

TracedRun run_traced(std::uint32_t num_tasks, std::uint64_t seed) {
  TracedRun out;
  machine::Cluster cluster(3,
                           machine::Interconnect::cut_through(3, msec(2)));
  sim::Simulator sim;
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto quantum = make_self_adjusting_quantum(usec(200), msec(10));
  tasks::WorkloadConfig wc;
  wc.num_tasks = num_tasks;
  wc.num_processors = 3;
  wc.processing_min = usec(500);
  wc.processing_max = msec(3);
  wc.laxity_min = 4.0;
  wc.laxity_max = 12.0;
  Xoshiro256ss rng(seed);
  const auto wl = tasks::generate_workload(wc, rng);
  const PhasePipeline pipeline(*algo, *quantum);
  SimBackend backend(cluster, sim);
  out.metrics = pipeline.run(wl, backend, &out.trace);
  return out;
}

TEST(PhaseTraceTest, OneRecordPerPhase) {
  const TracedRun r = run_traced(100, 1);
  EXPECT_EQ(r.trace.records().size(), r.metrics.phases);
  EXPECT_FALSE(r.trace.empty());
}

TEST(PhaseTraceTest, RecordsAggregateToRunMetrics) {
  const TracedRun r = run_traced(120, 2);
  std::uint64_t vertices = 0, scheduled = 0, culled = 0, dead_ends = 0;
  SimDuration quantum_sum = SimDuration::zero();
  for (const PhaseRecord& rec : r.trace.records()) {
    vertices += rec.search.vertices_generated;
    scheduled += rec.scheduled;
    culled += rec.culled;
    dead_ends += rec.search.dead_end ? 1 : 0;
    quantum_sum += rec.quantum;
  }
  EXPECT_EQ(vertices, r.metrics.vertices_generated);
  EXPECT_EQ(scheduled, r.metrics.scheduled);
  // Culls can also happen on wake-up phases that end up empty, which do not
  // produce a record; the recorded culls are a lower bound.
  EXPECT_LE(culled, r.metrics.culled);
  EXPECT_EQ(dead_ends, r.metrics.dead_ends);
  EXPECT_EQ(quantum_sum, r.metrics.allocated_quantum);
}

TEST(PhaseTraceTest, PhasesAreContiguousAndIndexed) {
  const TracedRun r = run_traced(80, 3);
  const auto& recs = r.trace.records();
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].index, i);
    EXPECT_LT(recs[i].start, recs[i].end);
    if (i > 0) {
      EXPECT_GE(recs[i].start, recs[i - 1].end);
    }
  }
}

TEST(PhaseTraceTest, QuantumRespectsFig3Inputs) {
  const TracedRun r = run_traced(150, 4);
  for (const PhaseRecord& rec : r.trace.records()) {
    // Q_s <= max(Min_Slack, Min_Load) up to the driver's floor clamp.
    const SimDuration criterion =
        max_duration(rec.min_slack, rec.min_load);
    const SimDuration floor = usec(200);  // policy min_quantum
    EXPECT_LE(rec.quantum,
              max_duration(max_duration(criterion, floor),
                           usec(50) + usec(10) /*overhead + vertex*/));
  }
}

TEST(PhaseTraceTest, CsvHasHeaderAndOneLinePerPhase) {
  const TracedRun r = run_traced(60, 5);
  std::ostringstream os;
  r.trace.write_csv(os);
  const std::string out = os.str();
  EXPECT_EQ(std::size_t(std::count(out.begin(), out.end(), '\n')),
            r.trace.records().size() + 1);
  EXPECT_NE(out.find("phase,start_us"), std::string::npos);
  EXPECT_NE(out.find("search_wall_ns,algorithm"), std::string::npos);
}

TEST(PhaseTraceTest, ClearResets) {
  TracedRun r = run_traced(40, 6);
  r.trace.clear();
  EXPECT_TRUE(r.trace.empty());
}

TEST(PhaseTraceTest, NullObserverIsFine) {
  machine::Cluster cluster(2,
                           machine::Interconnect::cut_through(2, msec(2)));
  sim::Simulator sim;
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto quantum = make_self_adjusting_quantum(usec(200), msec(10));
  tasks::WorkloadConfig wc;
  wc.num_tasks = 30;
  wc.num_processors = 2;
  Xoshiro256ss rng(7);
  const auto wl = tasks::generate_workload(wc, rng);
  const PhasePipeline pipeline(*algo, *quantum);
  SimBackend backend(cluster, sim);
  const RunMetrics m = pipeline.run(wl, backend, nullptr);
  EXPECT_GT(m.phases, 0u);
}

}  // namespace
}  // namespace rtds::sched
