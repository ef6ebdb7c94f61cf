// MICRO — search-engine microbenchmarks (google-benchmark).
//
// Measures the primitive costs the simulated `vertex_generation_cost`
// stands in for: vertex evaluation (feasibility test + cost computation),
// full phase searches in both representations, and the greedy baselines.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "search/engine.h"
#include "sched/algorithm.h"
#include "sched/registry.h"

namespace {

using namespace rtds;
using search::Representation;
using search::SearchConfig;
using search::SearchEngine;

std::vector<tasks::Task> make_batch(std::uint32_t n, std::uint32_t m,
                                    std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  std::vector<tasks::Task> batch;
  batch.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    tasks::Task t;
    t.id = i;
    t.processing = rng.uniform_duration(usec(200), msec(5));
    t.deadline = SimTime::zero() +
                 rng.uniform_duration(msec(10), msec(120));
    for (std::uint32_t k = 0; k < m; ++k) {
      if (rng.bernoulli(0.3)) t.affinity.add(k);
    }
    if (t.affinity.empty()) t.affinity.add(i % m);
    batch.push_back(t);
  }
  return batch;
}

void BM_EvaluateVertex(benchmark::State& state) {
  const std::uint32_t m = 8;
  const auto batch = make_batch(64, m, 1);
  const auto net = machine::Interconnect::cut_through(m, msec(2));
  search::PartialSchedule ps(&batch,
                             std::vector<SimDuration>(m, SimDuration{}),
                             SimTime::zero() + msec(1), &net);
  std::uint32_t i = 0;
  for (auto _ : state) {
    auto a = ps.evaluate(i % 64, i % m);
    benchmark::DoNotOptimize(a);
    ++i;
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_EvaluateVertex);

void BM_PushPop(benchmark::State& state) {
  const std::uint32_t m = 8;
  const auto batch = make_batch(64, m, 2);
  const auto net = machine::Interconnect::cut_through(m, msec(2));
  search::PartialSchedule ps(&batch,
                             std::vector<SimDuration>(m, SimDuration{}),
                             SimTime::zero() + msec(1), &net);
  for (auto _ : state) {
    if (auto a = ps.evaluate(0, 0)) {
      ps.push(*a);
      ps.pop();
    }
  }
  state.SetItemsProcessed(std::int64_t(state.iterations()));
}
BENCHMARK(BM_PushPop);

void BM_PhaseSearch(benchmark::State& state, Representation rep) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::uint32_t m = 10;
  const auto batch = make_batch(n, m, 3);
  const auto net = machine::Interconnect::cut_through(m, msec(2));
  SearchConfig cfg;
  cfg.representation = rep;
  cfg.use_load_balance_cost = rep == Representation::kAssignmentOriented;
  const SearchEngine engine(cfg);
  std::uint64_t vertices = 0;
  for (auto _ : state) {
    const auto r = engine.run(batch,
                              std::vector<SimDuration>(m, SimDuration{}),
                              SimTime::zero() + msec(1), net, 10000);
    vertices += r.stats.vertices_generated;
    benchmark::DoNotOptimize(r.schedule.data());
  }
  state.counters["vertices/s"] = benchmark::Counter(
      double(vertices), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_PhaseSearch, assignment,
                  Representation::kAssignmentOriented)
    ->Arg(100)
    ->Arg(400);
BENCHMARK_CAPTURE(BM_PhaseSearch, sequence, Representation::kSequenceOriented)
    ->Arg(100)
    ->Arg(400);

void BM_GreedyPhase(benchmark::State& state, const char* spec) {
  const std::uint32_t m = 10, n = 200;
  const auto batch = make_batch(n, m, 4);
  const auto net = machine::Interconnect::cut_through(m, msec(2));
  const auto algo = sched::AlgorithmRegistry::builtin().make(spec);
  for (auto _ : state) {
    const auto r = algo->schedule_phase(
        batch, std::vector<SimDuration>(m, SimDuration{}),
        SimTime::zero() + msec(1), net, 10000);
    benchmark::DoNotOptimize(r.schedule.data());
  }
}
BENCHMARK_CAPTURE(BM_GreedyPhase, edf_best_fit, "edf_bf");
BENCHMARK_CAPTURE(BM_GreedyPhase, myopic, "myopic");

}  // namespace

BENCHMARK_MAIN();
