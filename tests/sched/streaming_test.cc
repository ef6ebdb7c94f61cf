// Open-system streaming entry point: run_stream over ArrivalSources,
// admission control, schedule-latency accounting, and the two latent
// pipeline bugs the open mode exposed (backpressure clamp order, the
// delivery_attempts leak).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.h"
#include "machine/cluster.h"
#include "machine/interconnect.h"
#include "sched/backend.h"
#include "sched/pipeline.h"
#include "sched/registry.h"
#include "sched/trace.h"
#include "sim/simulator.h"
#include "tasks/arrival_source.h"
#include "tasks/workload.h"
#include "testing/fault_injection.h"

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
      : cluster(workers,
                machine::Interconnect::cut_through(workers, comm)) {}
  machine::Cluster cluster;
  sim::Simulator sim;
};

/// Refuses the first `n` assignments handed to deliver(), then forwards
/// everything. FaultInjectingBackend can only express periodic refusal;
/// the backpressure regression below needs "refuse exactly phase 1's
/// schedule, accept everything after".
class RefuseFirstN final : public ExecutionBackend {
 public:
  RefuseFirstN(ExecutionBackend& inner, std::uint64_t n)
      : inner_(inner), remaining_(n) {}

  [[nodiscard]] std::uint32_t num_workers() const override {
    return inner_.num_workers();
  }
  [[nodiscard]] const machine::Interconnect& interconnect() const override {
    return inner_.interconnect();
  }
  [[nodiscard]] SimTime now() const override { return inner_.now(); }
  [[nodiscard]] SimDuration load(std::uint32_t worker,
                                 SimTime t) const override {
    return inner_.load(worker, t);
  }
  void wait_until(SimTime t) override { inner_.wait_until(t); }
  void advance(SimDuration host_busy) override { inner_.advance(host_busy); }

  DeliveryResult deliver(
      const std::vector<machine::ScheduledAssignment>& schedule) override {
    std::vector<machine::ScheduledAssignment> pass;
    DeliveryResult out;
    for (const machine::ScheduledAssignment& sa : schedule) {
      if (remaining_ > 0) {
        --remaining_;
        out.undelivered.push_back(sa);
      } else {
        pass.push_back(sa);
      }
    }
    DeliveryResult inner_result = inner_.deliver(pass);
    out.accepted = inner_result.accepted;
    for (machine::ScheduledAssignment& sa : inner_result.undelivered) {
      out.undelivered.push_back(std::move(sa));
    }
    return out;
  }

  BackendStats drain() override { return inner_.drain(); }
  void bind_ledger(TaskLedger* ledger) override { inner_.bind_ledger(ledger); }

 private:
  ExecutionBackend& inner_;
  std::uint64_t remaining_;
};

TEST(StreamingTest, EmptySourceReturnsCleanMetrics) {
  Fixture f(2);
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum();
  const PhasePipeline pipeline(*algo, *q);
  SimBackend backend(f.cluster, f.sim);
  tasks::VectorArrivalSource source(std::vector<Task>{});
  const RunMetrics m = pipeline.run_stream(source, backend);
  EXPECT_EQ(m.total_tasks, 0u);
  EXPECT_EQ(m.phases, 0u);
  EXPECT_EQ(m.admission_rejected, 0u);
  EXPECT_DOUBLE_EQ(m.hit_ratio(), 1.0);
}

TEST(StreamingTest, ClosedRunAndVectorStreamAreFieldForFieldEqual) {
  // run() is documented as run_stream over a VectorArrivalSource with
  // admission control off — prove it on a busy workload.
  tasks::WorkloadConfig wc;
  wc.num_tasks = 150;
  wc.num_processors = 3;
  wc.arrival = tasks::ArrivalPattern::kPoisson;
  wc.mean_interarrival = usec(400);
  wc.laxity_min = 3.0;
  wc.laxity_max = 10.0;
  Xoshiro256ss rng(11);
  const auto wl = tasks::generate_workload(wc, rng);

  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(5));
  const PhasePipeline pipeline(*algo, *q);

  Fixture closed(3);
  SimBackend closed_backend(closed.cluster, closed.sim);
  const RunMetrics a = pipeline.run(wl, closed_backend);

  Fixture open(3);
  SimBackend open_backend(open.cluster, open.sim);
  tasks::VectorArrivalSource source(wl);
  StreamStats stats{StreamOptions{}};
  const RunMetrics b =
      pipeline.run_stream(source, open_backend, StreamOptions{}, &stats);

  EXPECT_EQ(a.total_tasks, b.total_tasks);
  EXPECT_EQ(a.scheduled, b.scheduled);
  EXPECT_EQ(a.deadline_hits, b.deadline_hits);
  EXPECT_EQ(a.exec_misses, b.exec_misses);
  EXPECT_EQ(a.culled, b.culled);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(b.admission_rejected, 0u);
  EXPECT_EQ(a.phases, b.phases);
  EXPECT_EQ(a.vertices_generated, b.vertices_generated);
  EXPECT_EQ(a.finish_time, b.finish_time);
  EXPECT_EQ(a.scheduling_time, b.scheduling_time);
  // The stream run additionally produced one latency sample per delivery.
  EXPECT_EQ(stats.schedule_latency.count(), b.scheduled);
}

TEST(StreamingTest, PoissonStreamIsDeterministicForFixedSeed) {
  tasks::StreamConfig cfg;
  cfg.seed = 0xFEED;
  cfg.max_tasks = 120;
  cfg.body.num_processors = 2;
  cfg.body.laxity_min = 4.0;
  cfg.body.laxity_max = 12.0;

  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(5));
  const PhasePipeline pipeline(*algo, *q);

  auto run_once = [&](RunMetrics& m, StreamStats& stats,
                      std::vector<PhaseRecord>& phases) {
    Fixture f(2);
    SimBackend backend(f.cluster, f.sim);
    tasks::PoissonArrivalSource source(cfg, usec(500));
    PhaseTraceRecorder trace;
    m = pipeline.run_stream(source, backend, StreamOptions{}, &stats, &trace);
    phases = trace.records();
  };

  RunMetrics m1, m2;
  StreamStats s1{StreamOptions{}}, s2{StreamOptions{}};
  std::vector<PhaseRecord> p1, p2;
  run_once(m1, s1, p1);
  run_once(m2, s2, p2);

  EXPECT_EQ(m1.total_tasks, cfg.max_tasks);
  EXPECT_EQ(m1.total_tasks, m2.total_tasks);
  EXPECT_EQ(m1.deadline_hits, m2.deadline_hits);
  EXPECT_EQ(m1.culled, m2.culled);
  EXPECT_EQ(m1.phases, m2.phases);
  EXPECT_EQ(m1.finish_time, m2.finish_time);
  EXPECT_EQ(s1.schedule_latency.count(), s2.schedule_latency.count());
  EXPECT_EQ(s1.schedule_latency.buckets(), s2.schedule_latency.buckets());
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].start, p2[i].start);
    EXPECT_EQ(p1[i].quantum, p2[i].quantum);
    EXPECT_EQ(p1[i].batch_size, p2[i].batch_size);
    EXPECT_EQ(p1[i].arrivals, p2[i].arrivals);
    EXPECT_EQ(p1[i].admission_rejected, p2[i].admission_rejected);
  }
}

TEST(StreamingTest, AdmissionControlTurnsArrivalsAwayAndBooksBalance) {
  // One slow worker, arrivals every ~200us, tasks of 1-10ms: the offered
  // rate dwarfs the service rate, so a bounded pending batch must reject.
  tasks::StreamConfig cfg;
  cfg.seed = 21;
  cfg.max_tasks = 150;
  cfg.body.num_processors = 1;
  cfg.body.laxity_min = 30.0;
  cfg.body.laxity_max = 60.0;

  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(5));
  const PhasePipeline pipeline(*algo, *q);

  Fixture f(1);
  SimBackend backend(f.cluster, f.sim);
  tasks::PoissonArrivalSource source(cfg, usec(200));
  StreamOptions opts;
  opts.max_pending = 4;
  StreamStats stats(opts);
  PhaseTraceRecorder trace;
  TaskLedger ledger;
  const RunMetrics m =
      pipeline.run_stream(source, backend, opts, &stats, &trace, &ledger);

  EXPECT_EQ(m.total_tasks, cfg.max_tasks);
  EXPECT_GT(m.admission_rejected, 0u);
  EXPECT_GT(m.deadline_hits, 0u);
  EXPECT_EQ(m.deadline_hits + m.exec_misses + m.culled + m.rejected +
                m.admission_rejected,
            m.total_tasks);
  EXPECT_EQ(ledger.counts().admission_rejected, m.admission_rejected);
  EXPECT_EQ(stats.schedule_latency.count(), m.scheduled);
  // The per-phase trace column sums to the aggregate counter.
  std::uint64_t traced = 0;
  for (const PhaseRecord& r : trace.records()) traced += r.admission_rejected;
  EXPECT_EQ(traced, m.admission_rejected);
}

TEST(StreamingTest, BackpressurePauseIsCappedByBatchMinSlack) {
  // Regression for the clamp-order bug: the configured backpressure floor
  // was applied AFTER the min-slack cap, so a floor larger than the batch's
  // min slack stretched the pause past the point where pending tasks were
  // still reachable. Three tasks on one worker, all refused once in phase 1:
  //   A: 5ms work, 2000ms deadline (huge slack — never at risk)
  //   B: 5ms work,   55ms deadline (defines min_slack ~ 50ms)
  //   C: 5ms work,  205ms deadline (reachable iff the pause respects the
  //      min-slack cap; dead if the 500ms floor wins)
  // Fixed order (floor first, cap last): pause ~ 50ms, only B expires.
  // Buggy order: pause = 500ms, B AND C expire — culled == 2, hits == 1.
  Fixture f(1, SimDuration::zero());
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(10));
  PipelineConfig cfg;
  cfg.delivery_backpressure = msec(500);
  const PhasePipeline pipeline(*algo, *q, cfg);
  SimBackend inner(f.cluster, f.sim);
  RefuseFirstN backend(inner, 3);
  const std::vector<Task> wl{
      make_task(0, SimTime::zero(), msec(5), SimTime::zero() + msec(2000),
                AffinitySet::all(1)),
      make_task(1, SimTime::zero(), msec(5), SimTime::zero() + msec(55),
                AffinitySet::all(1)),
      make_task(2, SimTime::zero(), msec(5), SimTime::zero() + msec(205),
                AffinitySet::all(1))};
  const RunMetrics m = pipeline.run(wl, backend);
  EXPECT_GE(m.backpressure_waits, 1u);
  EXPECT_EQ(m.culled, 1u);
  EXPECT_EQ(m.deadline_hits, 2u);
  EXPECT_EQ(m.rejected, 0u);
  EXPECT_EQ(m.exec_misses, 0u);
}

TEST(StreamingTest, RefusalHeavyStreamRetiresEveryAttemptEntry) {
  // Regression for the delivery_attempts leak: entries were only erased on
  // the rejected path, so delivered/culled tasks that had ever been refused
  // kept their counters forever. The pipeline now asserts the map is empty
  // at drain (RTDS_CHECK_MSG) — this run exercises all three terminal
  // paths for previously-refused tasks and must complete cleanly.
  tasks::StreamConfig cfg;
  cfg.seed = 33;
  cfg.max_tasks = 100;
  cfg.body.num_processors = 2;
  cfg.body.laxity_min = 2.0;
  cfg.body.laxity_max = 8.0;

  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(5));
  PipelineConfig pcfg;
  pcfg.max_delivery_attempts = 2;
  const PhasePipeline pipeline(*algo, *q, pcfg);

  Fixture f(2);
  SimBackend inner(f.cluster, f.sim);
  testing::FaultInjectingBackend backend(inner, 2);  // refuse every 2nd
  tasks::PoissonArrivalSource source(cfg, usec(300));
  StreamStats stats{StreamOptions{}};
  const RunMetrics m =
      pipeline.run_stream(source, backend, StreamOptions{}, &stats);

  EXPECT_EQ(m.total_tasks, cfg.max_tasks);
  EXPECT_GT(m.readmissions, 0u);
  EXPECT_GT(m.rejected, 0u);
  EXPECT_GT(m.deadline_hits, 0u);
  EXPECT_EQ(m.deadline_hits + m.exec_misses + m.culled + m.rejected +
                m.admission_rejected,
            m.total_tasks);
  EXPECT_EQ(stats.schedule_latency.count(), m.scheduled);
}

TEST(StreamingTest, LatencyHistogramBoundsAreConfigurable) {
  // A tiny window forces overflow samples; the digest still accounts for
  // every delivery (count includes the out-of-range edges).
  tasks::StreamConfig cfg;
  cfg.seed = 5;
  cfg.max_tasks = 40;
  cfg.body.num_processors = 2;
  cfg.body.laxity_min = 10.0;
  cfg.body.laxity_max = 20.0;

  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(5));
  const PhasePipeline pipeline(*algo, *q);

  Fixture f(2);
  SimBackend backend(f.cluster, f.sim);
  tasks::PoissonArrivalSource source(cfg, usec(500));
  StreamOptions opts;
  opts.latency_lo_us = 0.0;
  opts.latency_hi_us = 1.0;  // ~every sample overflows
  opts.latency_buckets = 4;
  StreamStats stats(opts);
  const RunMetrics m = pipeline.run_stream(source, backend, opts, &stats);
  EXPECT_EQ(stats.schedule_latency.count(), m.scheduled);
  EXPECT_GT(stats.schedule_latency.overflow(), 0u);
}

}  // namespace
}  // namespace rtds::sched
