// Heap allocations and live heap of the steady-state scheduling phase.
//
// This binary replaces the global allocation functions with counting ones,
// which is why it is a test executable of its own: the counters must not
// change what any other test sees. Every replaced form forwards to
// malloc/free, so new/delete pairs stay matched under the sanitizers too,
// and the live-heap count uses malloc_usable_size at both ends.
//
// Checked, after a warm-up that grows the thread's search workspace:
//   * SearchEngine::run with the RT-SADS and D-COLS configurations and
//     best-first search, on batches of 1, 16, 17 and 1000 tasks, allocates
//     nothing when the result is empty and at most once (the returned
//     schedule, copied out of the search's path) otherwise;
//   * so do the in-place searches of two phase sequences over one pending
//     set kept as the pipeline keeps it: a fig5-shaped 1000-task set that
//     only shrinks, and onoff-shaped bursts of arrivals merged into it;
//   * the set's upkeep in those sequences — arrivals merged at their rank,
//     the cull, retiring the delivered tasks and keeping the refused ones
//     pending — allocates nothing at all;
//   * a 20,000-task Poisson run_stream on SimBackend allocates at most 2.5
//     times per offered task. What remains is per task, not per phase: the
//     ledger's hash node of each task in flight (freed when the task
//     retires) and the schedule a non-empty search returns;
//   * the same stream's live heap is flat in its length: 10^5 and 10^6
//     streamed tasks reach the same high-water, and the ledger never holds
//     more than the admission bound plus one phase's deliveries.
#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.h"
#include "machine/cluster.h"
#include "machine/interconnect.h"
#include "sched/backend.h"
#include "sched/ledger.h"
#include "sched/pipeline.h"
#include "sched/quantum.h"
#include "sched/registry.h"
#include "sched/trace.h"
#include "search/engine.h"
#include "sim/simulator.h"
#include "tasks/arrival_source.h"
#include "tasks/batch.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_live_bytes{0};

void* counted(void* p) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (p == nullptr) return p;
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      g_live_bytes.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void* counted_malloc(std::size_t n) {
  return counted(std::malloc(n == 0 ? 1 : n));
}

void* counted_aligned(std::size_t n, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  // size: multiple of a
  return counted(std::aligned_alloc(a, (n + a - 1) / a * a));
}

void counted_free(void* p) {
  if (p != nullptr) {
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
  }
  std::free(p);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

/// Allocations made since construction.
class AllocationCounter {
 public:
  [[nodiscard]] std::uint64_t count() const {
    return g_allocations.load(std::memory_order_relaxed) - start_;
  }

 private:
  std::uint64_t start_{g_allocations.load(std::memory_order_relaxed)};
};

/// High-water of the live heap since construction, in bytes above the
/// live heap at construction.
class LiveHeapPeak {
 public:
  LiveHeapPeak() {
    g_peak_live_bytes.store(start_, std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t bytes() const {
    return g_peak_live_bytes.load(std::memory_order_relaxed) - start_;
  }

 private:
  std::int64_t start_{g_live_bytes.load(std::memory_order_relaxed)};
};

}  // namespace

void* operator new(std::size_t n) { return or_throw(counted_malloc(n)); }
void* operator new[](std::size_t n) { return or_throw(counted_malloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return or_throw(counted_aligned(n, a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return or_throw(counted_aligned(n, a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(n, a);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace rtds {
namespace {

constexpr std::uint32_t kWorkers = 4;
constexpr std::uint64_t kBudget = 2000;
const SimTime kDelivery = SimTime::zero() + msec(1);

search::SearchConfig config_of(const sched::PhaseAlgorithm& algorithm) {
  return dynamic_cast<const sched::TreeSearchAlgorithm&>(algorithm)
      .search_config();
}

/// `n` tasks with distinct, unsorted deadlines (so the EDF order really
/// sorts). Placeable ones fit anywhere; unplaceable ones have a deadline
/// before delivery + p on every worker, so the search returns nothing.
std::vector<tasks::Task> make_batch(std::uint32_t n, bool placeable) {
  Xoshiro256ss rng(n);
  std::vector<tasks::Task> batch(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    tasks::Task& t = batch[i];
    t.id = i;
    t.processing = rng.uniform_duration(usec(100), usec(500));
    const SimDuration lead = rng.uniform_duration(msec(1), msec(9));
    t.deadline = placeable ? kDelivery + msec(10000) + lead
                           : kDelivery + t.processing - lead;
    t.affinity.add(static_cast<tasks::ProcessorId>(
        rng.uniform_int(0, kWorkers - 1)));
  }
  return batch;
}

TEST(SteadyStateAllocTest, SearchAllocatesOnlyTheReturnedSchedule) {
  const auto net = machine::Interconnect::cut_through(kWorkers, usec(50));
  const std::vector<SimDuration> loads(kWorkers, usec(300));
  const auto rt_sads = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto d_cols = sched::AlgorithmRegistry::builtin().make("d_cols");
  const auto best_first =
      sched::AlgorithmRegistry::builtin().make("search?strategy=best");
  for (const sched::PhaseAlgorithm* algorithm :
       {rt_sads.get(), d_cols.get(), best_first.get()}) {
    SCOPED_TRACE(algorithm->name());
    const search::SearchEngine engine(config_of(*algorithm));
    // Warm-up on the largest batch grows every reused buffer.
    for (const bool placeable : {true, false}) {
      const auto big = make_batch(1000, placeable);
      (void)engine.run(big, loads, kDelivery, net, kBudget);
    }
    for (const std::uint32_t n : {1u, 16u, 17u, 1000u}) {
      for (const bool placeable : {true, false}) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << (placeable ? " placeable" : " unplaceable"));
        const auto batch = make_batch(n, placeable);
        const AllocationCounter counter;
        const search::SearchResult result =
            engine.run(batch, loads, kDelivery, net, kBudget);
        const std::uint64_t allocations = counter.count();
        EXPECT_EQ(result.schedule.empty(), !placeable);
        EXPECT_LE(allocations, result.schedule.empty() ? 0u : 1u);
      }
    }
  }
}

/// `n` arrivals at `now` with deadlines on a 1 ms grid, so arrivals tie
/// with each other and with the tasks already pending.
std::vector<tasks::Task> arrivals(Xoshiro256ss& rng, std::uint32_t n,
                                  SimTime now, tasks::TaskId& next_id) {
  std::vector<tasks::Task> out(n);
  for (tasks::Task& t : out) {
    t.id = next_id++;
    t.arrival = now;
    t.processing = rng.uniform_duration(usec(100), usec(500));
    t.deadline = now + msec(rng.uniform_int(1, 40));
    t.affinity.add(static_cast<tasks::ProcessorId>(
        rng.uniform_int(0, kWorkers - 1)));
  }
  return out;
}

/// What one pass of a phase sequence did.
struct SequencePass {
  std::uint64_t runs{0};
  /// Runs that allocated more than their returned schedule.
  std::uint64_t over{0};
  std::uint64_t worst{0};  ///< most allocations of one such run
  /// Allocations of the set's upkeep: merges, culls and retirements.
  std::uint64_t upkeep{0};
  std::uint64_t readmitted{0};  ///< scheduled tasks left pending
};

/// One pass of `phases` phases 100 us apart through `engine`, on the
/// pending set `batch` kept as the pipeline keeps it (emptied first; its
/// capacity and that of `culled` carry over from pass to pass, as they do
/// from phase to phase): each phase merges `burst(phase)` arrivals at their
/// rank, culls, searches the set in place and retires the tasks it
/// scheduled but every fifth, which stays pending as a refused delivery
/// does. The retired tasks' work then loads their workers. The search and
/// the upkeep are counted apart.
template <typename Burst>
SequencePass run_sequence(const search::SearchEngine& engine,
                          std::uint32_t phases, Burst burst,
                          tasks::Batch& batch, std::vector<tasks::Task>& culled,
                          std::vector<std::uint32_t>& scheduled) {
  constexpr SimDuration kPhase = usec(100);
  const auto net = machine::Interconnect::cut_through(kWorkers, usec(50));
  std::vector<SimDuration> loads(kWorkers, SimDuration::zero());
  Xoshiro256ss rng(0xB0257);
  tasks::TaskId next_id = 0;
  batch.reset(engine.config().task_order);
  SequencePass pass;
  for (std::uint32_t phase = 0; phase < phases; ++phase) {
    const SimTime now = SimTime::zero() + kPhase * phase;
    for (SimDuration& load : loads) {
      load = load > kPhase ? load - kPhase : SimDuration::zero();
    }
    const std::vector<tasks::Task> arrived =
        arrivals(rng, burst(phase), now, next_id);
    {
      const AllocationCounter counter;
      batch.merge_arrivals(arrived);
      (void)batch.cull_missed(now, culled);
      pass.upkeep += counter.count();
    }
    if (batch.empty()) continue;
    const AllocationCounter counter;
    const search::SearchResult result =
        engine.run(batch, loads, now, net, kBudget);
    const std::uint64_t allocations = counter.count();
    pass.runs += 1;
    if (allocations > (result.schedule.empty() ? 0u : 1u)) {
      pass.over += 1;
      pass.worst = std::max(pass.worst, allocations);
    }
    scheduled.clear();
    for (std::size_t i = 0; i < result.schedule.size(); ++i) {
      const search::Assignment& a = result.schedule[i];
      if (i % 5 == 4) {
        pass.readmitted += 1;
        continue;
      }
      scheduled.push_back(a.task_index);
      loads[a.worker] = max_duration(loads[a.worker], a.end_offset);
    }
    std::sort(scheduled.begin(), scheduled.end());
    const AllocationCounter retire;
    batch.remove_scheduled(scheduled);
    pass.upkeep += retire.count();
  }
  return pass;
}

/// fig5-shaped: 1000 tasks at t=0 and nothing after, so every set is the
/// previous one minus culled and scheduled tasks. onoff-shaped: a burst of
/// 200 every 50 phases and a trickle between. One set and its phase
/// buffers serve every pass on the thread.
SequencePass run_shape(const search::SearchEngine& engine, bool shrinking) {
  static thread_local tasks::Batch batch;
  static thread_local std::vector<tasks::Task> culled;
  static thread_local std::vector<std::uint32_t> scheduled;
  const auto fig5 = [](std::uint32_t phase) { return phase == 0 ? 1000u : 0u; };
  const auto onoff = [](std::uint32_t phase) {
    return phase % 50 == 0 ? 200u : phase % 3;
  };
  return shrinking
             ? run_sequence(engine, 200, fig5, batch, culled, scheduled)
             : run_sequence(engine, 200, onoff, batch, culled, scheduled);
}

TEST(SteadyStateAllocTest, PhaseSequencesAllocateOnlyTheirSchedules) {
  const auto rt_sads = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto d_cols = sched::AlgorithmRegistry::builtin().make("d_cols");
  const auto best_first =
      sched::AlgorithmRegistry::builtin().make("search?strategy=best");
  const auto edf_ff = sched::AlgorithmRegistry::builtin().make("edf_ff");
  for (const sched::PhaseAlgorithm* algorithm :
       {rt_sads.get(), d_cols.get(), best_first.get(), edf_ff.get()}) {
    const search::SearchEngine engine(config_of(*algorithm));
    for (const bool shrinking : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << algorithm->name() << (shrinking ? " fig5" : " onoff"));
      (void)run_shape(engine, shrinking);  // warm-up: grows the workspace
      const SequencePass counted = run_shape(engine, shrinking);
      EXPECT_GT(counted.runs, 50u);
      EXPECT_EQ(counted.over, 0u)
          << "a run allocated up to " << counted.worst << " times";
    }
  }
}

TEST(SteadyStateAllocTest, PendingSetUpkeepAllocatesNothing) {
  // The warm-up pass grows the set's columns and its merge scratch to the
  // sequence's peak; the counted pass then merges bursts and trickles at
  // their rank, culls, retires and keeps refused tasks pending without one
  // allocation, in every order a search keeps.
  for (const search::TaskOrder order :
       {search::TaskOrder::kEarliestDeadline, search::TaskOrder::kMinSlack,
        search::TaskOrder::kBatchOrder}) {
    search::SearchConfig config;
    config.task_order = order;
    const search::SearchEngine engine(config);
    for (const bool shrinking : {true, false}) {
      SCOPED_TRACE(::testing::Message() << "order " << int(order)
                                        << (shrinking ? " fig5" : " onoff"));
      (void)run_shape(engine, shrinking);
      const SequencePass counted = run_shape(engine, shrinking);
      EXPECT_GT(counted.readmitted, 20u);
      EXPECT_EQ(counted.upkeep, 0u);
    }
  }
}

TEST(SteadyStateAllocTest,
     PoissonStreamStaysUnderTwoAndAHalfAllocationsPerTask) {
  // The perfbench poisson_steady cell at a tenth of its length: rt_sads on
  // four workers, 500 tasks/s, admission control at 128 pending.
  constexpr std::uint32_t kTasks = 20000;
  tasks::StreamConfig cfg;
  cfg.seed = 0x5EED;
  cfg.max_tasks = kTasks;
  cfg.body.num_processors = kWorkers;
  sched::StreamOptions options;
  options.max_pending = 128;
  const auto algorithm = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto quantum = sched::make_self_adjusting_quantum();
  const sched::PhasePipeline pipeline(*algorithm, *quantum);

  std::uint64_t allocations = 0;
  sched::RunMetrics metrics;
  for (int run = 0; run < 2; ++run) {  // the first run is the warm-up
    machine::Cluster cluster(
        kWorkers, machine::Interconnect::cut_through(kWorkers, usec(50)));
    sim::Simulator simulator;
    sched::SimBackend backend(cluster, simulator);
    tasks::PoissonArrivalSource source(cfg, usec(2000));
    const AllocationCounter counter;
    metrics = pipeline.run_stream(source, backend, options);
    allocations = counter.count();
  }
  ASSERT_EQ(metrics.total_tasks, kTasks);
  ASSERT_GT(metrics.phases, kTasks);  // a steady stream: several per task
  RecordProperty("allocations", std::to_string(allocations));
  RecordProperty("phases", std::to_string(metrics.phases));
  EXPECT_LE(allocations, 5u * kTasks / 2)
      << double(allocations) / kTasks << " allocations per task, "
      << double(allocations) / double(metrics.phases) << " per phase";
}

/// Fails the run unless, at every phase end, the ledger holds at most the
/// admission bound plus the phase's own deliveries: SimBackend reports the
/// outcomes of a phase's deliveries at its next clock call.
class LedgerBound final : public sched::PhaseObserver {
 public:
  LedgerBound(const sched::TaskLedger& ledger, std::size_t max_pending)
      : ledger_(ledger), max_pending_(max_pending) {}

  void on_phase(const sched::PhaseRecord& record) override {
    const std::size_t bound = max_pending_ + record.delivered;
    if (ledger_.size() > bound) {
      ++overruns_;
      worst_ = std::max(worst_, ledger_.size() - bound);
    }
    high_water_ = std::max(high_water_, ledger_.size());
  }

  [[nodiscard]] std::uint64_t overruns() const { return overruns_; }
  [[nodiscard]] std::size_t worst() const { return worst_; }
  [[nodiscard]] std::size_t high_water() const { return high_water_; }

 private:
  const sched::TaskLedger& ledger_;
  std::size_t max_pending_;
  std::uint64_t overruns_{0};
  std::size_t worst_{0};
  std::size_t high_water_{0};
};

struct Soak {
  sched::RunMetrics metrics;
  std::int64_t peak_bytes{0};  ///< live-heap high-water above the start
  std::uint64_t ledger_overruns{0};
  std::size_t ledger_worst{0};
  std::size_t ledger_high_water{0};
  std::size_t ledger_left{0};
};

/// The perfbench poisson_steady cell: rt_sads on four workers, Poisson
/// arrivals 2 ms apart on average, admission control at 128 pending.
Soak soak(std::uint32_t tasks, std::uint64_t seed) {
  constexpr std::size_t kMaxPending = 128;
  tasks::StreamConfig cfg;
  cfg.seed = seed;
  cfg.max_tasks = tasks;
  cfg.body.num_processors = kWorkers;
  sched::StreamOptions options;
  options.max_pending = kMaxPending;
  const auto algorithm = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto quantum = sched::make_self_adjusting_quantum();
  const sched::PhasePipeline pipeline(*algorithm, *quantum);

  Soak out;
  const LiveHeapPeak peak;
  {
    machine::Cluster cluster(
        kWorkers, machine::Interconnect::cut_through(kWorkers, usec(50)));
    sim::Simulator simulator;
    sched::SimBackend backend(cluster, simulator);
    tasks::PoissonArrivalSource source(cfg, usec(2000));
    sched::TaskLedger ledger;
    LedgerBound bound(ledger, kMaxPending);
    out.metrics =
        pipeline.run_stream(source, backend, options, nullptr, &bound, &ledger);
    out.ledger_overruns = bound.overruns();
    out.ledger_worst = bound.worst();
    out.ledger_high_water = bound.high_water();
    out.ledger_left = ledger.size();
  }
  out.peak_bytes = peak.bytes();
  return out;
}

TEST(SteadyStateAllocTest, StreamLiveHeapIsFlatInStreamLength) {
  constexpr std::int64_t kSlackBytes = 64 * 1024;
  (void)soak(20000, 0x50AC);  // warm-up: grows the search workspace
  const Soak short_run = soak(100000, 0x50AC);
  const Soak long_run = soak(1000000, 0x50AC);
  for (const Soak* run : {&short_run, &long_run}) {
    SCOPED_TRACE(::testing::Message() << run->metrics.total_tasks << " tasks");
    EXPECT_EQ(run->metrics.exec_misses, 0u);
    EXPECT_GT(run->metrics.deadline_hits, 0u);
    EXPECT_EQ(run->ledger_overruns, 0u)
        << "the ledger held up to " << run->ledger_worst
        << " tasks more than max_pending plus the phase's deliveries";
    EXPECT_GT(run->ledger_high_water, 0u);
    EXPECT_EQ(run->ledger_left, 0u);
  }
  ASSERT_EQ(long_run.metrics.total_tasks, 1000000u);
  RecordProperty("peak_bytes_1e5", std::to_string(short_run.peak_bytes));
  RecordProperty("peak_bytes_1e6", std::to_string(long_run.peak_bytes));
  EXPECT_LE(std::abs(long_run.peak_bytes - short_run.peak_bytes), kSlackBytes)
      << "live-heap high-water " << short_run.peak_bytes << " B at 10^5 "
      << "streamed tasks, " << long_run.peak_bytes << " B at 10^6";
}

}  // namespace
}  // namespace rtds
