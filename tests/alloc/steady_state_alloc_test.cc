// Heap allocations of the steady-state scheduling phase.
//
// This binary replaces the global allocation functions with counting ones,
// which is why it is a test executable of its own: the counter must not
// change what any other test sees. Every replaced form forwards to
// malloc/free, so new/delete pairs stay matched under the sanitizers too.
//
// Checked, after a warm-up that grows the thread's search workspace:
//   * SearchEngine::run with the RT-SADS and D-COLS configurations, on
//     batches of 1, 16, 17 and 1000 tasks, allocates nothing when the
//     result is empty and at most once (the returned schedule) otherwise;
//   * a 20,000-task Poisson run_stream on SimBackend allocates at most 5
//     times per offered task. What remains is per task, not per phase: the
//     ledger's and the batch's hash nodes, the arrival source, and the
//     simulated cluster's queues and completion log.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/rng.h"
#include "machine/cluster.h"
#include "machine/interconnect.h"
#include "sched/backend.h"
#include "sched/pipeline.h"
#include "sched/presets.h"
#include "sched/quantum.h"
#include "search/engine.h"
#include "sim/simulator.h"
#include "tasks/arrival_source.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_malloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned(std::size_t n, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  return std::aligned_alloc(a, (n + a - 1) / a * a);  // size: multiple of a
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
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
  const auto rt_sads = sched::make_rt_sads();
  const auto d_cols = sched::make_d_cols();
  for (const sched::PhaseAlgorithm* algorithm : {rt_sads.get(), d_cols.get()}) {
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

TEST(SteadyStateAllocTest, PoissonStreamStaysUnderFiveAllocationsPerTask) {
  // The perfbench poisson_steady cell at a tenth of its length: rt_sads on
  // four workers, 500 tasks/s, admission control at 128 pending.
  constexpr std::uint32_t kTasks = 20000;
  tasks::StreamConfig cfg;
  cfg.seed = 0x5EED;
  cfg.max_tasks = kTasks;
  cfg.body.num_processors = kWorkers;
  sched::StreamOptions options;
  options.max_pending = 128;
  const auto algorithm = sched::make_rt_sads();
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
  EXPECT_LE(allocations, 5u * kTasks)
      << double(allocations) / kTasks << " allocations per task, "
      << double(allocations) / double(metrics.phases) << " per phase";
}

}  // namespace
}  // namespace rtds
