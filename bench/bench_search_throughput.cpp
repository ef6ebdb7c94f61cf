// Search hot-path throughput: optimized SearchEngine vs the frozen
// pre-optimization snapshot (tests/support/reference_engine.h), on the
// paper's workload shapes.
//
//   bench_search_throughput [--quick] [--reps N] [--iters N] [--out PATH]
//                           [--capacity-max N]
//
// Sweeps (n, m, strategy, task order, representation) cells; each cell runs
// both engines on identical phase inputs — the optimized one over a pending
// set built once per input, as the pipeline keeps it, the reference over
// that set's tasks — checks the results are
// bit-identical (the equivalence suite's guarantee, re-asserted here so a
// perf number can never come from a divergent search), and reports
// vertices/sec, ns/vertex, expansions/sec and p50/p99 per-phase search
// latency. A cell whose search places nothing within its budget is refused:
// such a search expands only the root, and the pipeline skips the phases
// that would repeat it, so it times no tree walk a run pays for. A second
// sweep is the CAPACITY table: generous-deadline
// batches at n ∈ {10^5, 10^6} (gated by --capacity-max; 0 skips, the
// --quick default) walked to a full-depth leaf, reporting vertices/sec
// plus the memory columns — process peak RSS and the engine's pooled
// arena/workspace bytes. n = 10^5 is still
// verified bit-identical against the reference engine; n = 10^6 (where the
// reference's per-vertex node heap is the bottleneck) is checked against a
// from-scratch schedule-invariant oracle instead. Writes the
// machine-readable trajectory to BENCH_SEARCH.json so future PRs can diff
// throughput against this one.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "machine/interconnect.h"
#include "search/engine.h"
#include "support/reference_engine.h"
#include "tasks/batch.h"
#include "tasks/workload.h"

namespace {

using namespace rtds;
using search::Representation;
using search::SearchConfig;
using search::SearchResult;
using search::SearchStrategy;
using search::TaskOrder;

struct Cell {
  std::string name;
  std::uint32_t n;
  std::uint32_t m;
  SearchConfig config;
  bool quick;  ///< part of the --quick sweep
};

struct EngineNumbers {
  double vertices_per_sec{0};
  double ns_per_vertex{0};
  double expansions_per_sec{0};
  std::uint64_t p50_ns{0};
  std::uint64_t p99_ns{0};
  std::uint64_t vertices{0};
};

std::vector<Cell> make_cells() {
  const auto cell = [](std::string name, std::uint32_t n, std::uint32_t m,
                       bool quick, auto mutate) {
    Cell c;
    c.name = std::move(name);
    c.n = n;
    c.m = m;
    c.quick = quick;
    // RT-SADS defaults: assignment-oriented, depth-first, EDF, CE cost.
    mutate(c.config);
    return c;
  };
  const auto nop = [](SearchConfig&) {};
  std::vector<Cell> cells;
  // The acceptance cell: FIG5 machine (m=10), n=1000, depth-first
  // assignment-oriented RT-SADS configuration.
  cells.push_back(cell("fig5_m10_n1000_dfs_assign", 1000, 10, true, nop));
  cells.push_back(cell("n100_m2_dfs_assign", 100, 2, false, nop));
  cells.push_back(cell("n100_m10_dfs_assign", 100, 10, true, nop));
  cells.push_back(cell("n1000_m19_dfs_assign", 1000, 19, false, nop));
  cells.push_back(cell("n1000_m10_bestfirst_assign", 1000, 10, false,
                       [](SearchConfig& c) {
                         c.strategy = SearchStrategy::kBestFirst;
                       }));
  cells.push_back(cell("n1000_m10_dfs_batchorder", 1000, 10, false,
                       [](SearchConfig& c) {
                         c.task_order = TaskOrder::kBatchOrder;
                       }));
  cells.push_back(cell("n1000_m10_dfs_minslack", 1000, 10, false,
                       [](SearchConfig& c) {
                         c.task_order = TaskOrder::kMinSlack;
                       }));
  // D-COLS shape: sequence-oriented round-robin.
  cells.push_back(cell("n1000_m10_dfs_seq", 1000, 10, true,
                       [](SearchConfig& c) {
                         c.representation = Representation::kSequenceOriented;
                       }));
  return cells;
}

/// One phase input matching the paper's workload shape: bursty arrivals,
/// p in [1, 10]ms, degree of affinity R = 0.3, SF = 1 (laxity 10), C = 5ms
/// (the FIG5/ExperimentConfig defaults), generous delivery at +5ms. The
/// batch is a pending set in the searched order, built before any timing:
/// the pipeline keeps it from phase to phase, so a search never pays for it.
struct PhaseInput {
  tasks::Batch set;
  std::vector<SimDuration> base_loads;
  SimTime delivery{SimTime::zero()};
  std::uint64_t budget{0};
};

PhaseInput make_input(const Cell& cell, std::uint64_t rep) {
  tasks::WorkloadConfig wc;
  wc.num_tasks = cell.n;
  wc.num_processors = cell.m;
  wc.affinity_degree = 0.3;
  Xoshiro256ss rng(bench::bench_seed("search_throughput", rep));
  PhaseInput in;
  in.set.reset(cell.config.task_order);
  in.set.merge_arrivals(tasks::generate_workload(wc, rng));
  in.base_loads.assign(cell.m, SimDuration::zero());
  in.delivery = SimTime::zero() + msec(5);
  in.budget = std::uint64_t{200} * cell.n;  // 200k vertices at n=1000
  return in;
}

void require_identical(const SearchResult& a, const SearchResult& b,
                       const std::string& where) {
  const bool same =
      a.stats.vertices_generated == b.stats.vertices_generated &&
      a.stats.expansions == b.stats.expansions &&
      a.stats.backtracks == b.stats.backtracks &&
      a.stats.max_depth == b.stats.max_depth &&
      a.stats.reached_leaf == b.stats.reached_leaf &&
      a.stats.dead_end == b.stats.dead_end &&
      a.stats.budget_exhausted == b.stats.budget_exhausted &&
      a.schedule.size() == b.schedule.size();
  if (!same) {
    std::cerr << "FATAL: engines diverged on " << where << "\n";
    std::exit(1);
  }
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    const search::Assignment& x = a.schedule[i];
    const search::Assignment& y = b.schedule[i];
    if (x.task_index != y.task_index || x.worker != y.worker ||
        x.exec_cost != y.exec_cost || x.prev_ce != y.prev_ce ||
        x.prev_max_ce != y.prev_max_ce || x.start_offset != y.start_offset ||
        x.end_offset != y.end_offset) {
      std::cerr << "FATAL: schedules diverged on " << where << " depth " << i
                << "\n";
      std::exit(1);
    }
  }
}

std::uint64_t percentile(std::vector<std::uint64_t> sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      p * double(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

template <typename Run>
EngineNumbers measure(const std::vector<PhaseInput>& inputs,
                      const machine::Interconnect& net, std::uint32_t iters,
                      Run run) {
  // Warmup: populate thread-local workspaces / page in the arena.
  (void)run(inputs[0], net);

  EngineNumbers out;
  std::vector<std::uint64_t> latencies;
  std::uint64_t total_ns = 0, total_vertices = 0, total_expansions = 0;
  for (const PhaseInput& in : inputs) {
    for (std::uint32_t it = 0; it < iters; ++it) {
      const auto t0 = std::chrono::steady_clock::now();
      const SearchResult r = run(in, net);
      const auto ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      latencies.push_back(ns);
      total_ns += ns;
      total_vertices += r.stats.vertices_generated;
      total_expansions += r.stats.expansions;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  const double secs = double(total_ns) * 1e-9;
  out.vertices_per_sec = secs > 0 ? double(total_vertices) / secs : 0;
  out.ns_per_vertex =
      total_vertices > 0 ? double(total_ns) / double(total_vertices) : 0;
  out.expansions_per_sec = secs > 0 ? double(total_expansions) / secs : 0;
  out.p50_ns = percentile(latencies, 0.50);
  out.p99_ns = percentile(latencies, 0.99);
  out.vertices = total_vertices;
  return out;
}

/// Process peak RSS (Linux ru_maxrss is KiB) — the capacity memory column.
std::uint64_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

/// Generous-deadline capacity input: every task feasible on every affinity
/// holder even if one worker absorbed the whole batch, so depth-first
/// search walks to a full-depth leaf — the shape that exercises the node
/// arena at n >= 10^5 with a predictable vertex count
/// of ~n*m (mirrors tests/search/capacity_test.cc).
PhaseInput make_capacity_input(std::uint32_t n, std::uint32_t m,
                               std::uint64_t rep) {
  Xoshiro256ss rng(bench::bench_seed("search_capacity", rep));
  PhaseInput in;
  in.delivery = SimTime::zero() + msec(5);
  const std::int64_t horizon_us = std::int64_t{n} * 1500 + 1'000'000;
  std::vector<tasks::Task> batch(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    tasks::Task& t = batch[i];
    t.id = i;
    t.processing = usec(rng.uniform_int(100, 1000));
    t.deadline = in.delivery + usec(horizon_us);
    if (rng.bernoulli(0.7)) {
      t.affinity = tasks::AffinitySet::all(m);
    } else {
      const auto holders = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
      for (std::uint32_t h = 0; h < holders; ++h) {
        t.affinity.add(
            static_cast<tasks::ProcessorId>(rng.uniform_int(0, m - 1)));
      }
    }
  }
  in.set.reset(tasks::TaskOrder::kEarliestDeadline);  // RT-SADS defaults
  in.set.merge_arrivals(batch);
  in.base_loads.assign(m, SimDuration::zero());
  in.budget = std::uint64_t{n} * m + 1000;
  return in;
}

/// From-scratch schedule-invariant oracle for capacity runs too large to
/// replay through the reference engine: re-derives every Assignment field
/// (undo values, start/end offsets, comm pricing, deadlines, single
/// assignment per task) from the batch alone. Any divergence is fatal.
void check_capacity_invariants(const SearchResult& r, const PhaseInput& in,
                               std::uint32_t m, SimDuration comm,
                               const std::string& where) {
  const auto die = [&](const char* what, std::size_t depth) {
    std::cerr << "FATAL: capacity invariant '" << what << "' failed on "
              << where << " depth " << depth << "\n";
    std::exit(1);
  };
  const std::vector<tasks::Task>& batch = in.set.tasks();
  if (!r.stats.reached_leaf || r.schedule.size() != batch.size()) {
    die("reached_leaf with full schedule", r.schedule.size());
  }
  std::vector<std::int64_t> ce(m, 0);
  std::vector<char> seen(batch.size(), 0);
  std::int64_t max_ce = 0;
  for (std::size_t i = 0; i < r.schedule.size(); ++i) {
    const search::Assignment& a = r.schedule[i];
    if (a.task_index >= batch.size() || a.worker >= m) die("bounds", i);
    if (seen[a.task_index] != 0) die("task assigned once", i);
    seen[a.task_index] = 1;
    const tasks::Task& t = batch[a.task_index];
    const std::int64_t want_comm =
        t.affinity.contains(a.worker) ? 0 : comm.us;
    if (a.exec_cost.us != t.processing.us + want_comm) die("exec_cost", i);
    if (a.prev_ce.us != ce[a.worker]) die("prev_ce undo value", i);
    if (a.prev_max_ce.us != max_ce) die("prev_max_ce undo value", i);
    const std::int64_t es =
        std::max<std::int64_t>(0, (t.earliest_start - in.delivery).us);
    const std::int64_t start = std::max(ce[a.worker], es);
    if (a.start_offset.us != start) die("start_offset", i);
    if (a.end_offset.us != start + a.exec_cost.us) die("end_offset", i);
    if (a.end_offset.us > (t.deadline - in.delivery).us) die("deadline", i);
    ce[a.worker] = a.end_offset.us;
    max_ce = std::max(max_ce, ce[a.worker]);
  }
}

const char* strategy_name(const SearchConfig& c) {
  return c.strategy == SearchStrategy::kDepthFirst ? "depth_first"
                                                   : "best_first";
}
const char* order_name(const SearchConfig& c) {
  switch (c.task_order) {
    case TaskOrder::kBatchOrder: return "batch";
    case TaskOrder::kEarliestDeadline: return "edf";
    case TaskOrder::kMinSlack: return "min_slack";
  }
  return "?";
}
const char* repr_name(const SearchConfig& c) {
  return c.representation == Representation::kAssignmentOriented
             ? "assignment"
             : "sequence";
}

void json_engine(std::ostream& os, const char* key, const EngineNumbers& e) {
  os << "    \"" << key << "\": {"
     << "\"vertices_per_sec\": " << std::uint64_t(e.vertices_per_sec) << ", "
     << "\"ns_per_vertex\": " << e.ns_per_vertex << ", "
     << "\"expansions_per_sec\": " << std::uint64_t(e.expansions_per_sec)
     << ", \"p50_ns\": " << e.p50_ns << ", \"p99_ns\": " << e.p99_ns << "}";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::uint32_t reps = 5;
  std::uint32_t iters = 4;
  std::string out_path = "BENCH_SEARCH.json";
  // Largest capacity-sweep n to run (cells above it are skipped). Default:
  // the full 10^6 sweep; --quick skips capacity entirely unless the flag
  // names a ceiling explicitly (CI release-fast runs --quick
  // --capacity-max 100000).
  std::uint64_t capacity_max = 0;
  bool capacity_max_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;
    } else if (a == "--reps" && i + 1 < argc) {
      reps = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 0));
    } else if (a == "--iters" && i + 1 < argc) {
      iters = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 0));
    } else if (a == "--capacity-max" && i + 1 < argc) {
      capacity_max = std::strtoull(argv[++i], nullptr, 0);
      capacity_max_set = true;
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_search_throughput [--quick] [--reps N] "
                   "[--iters N] [--out PATH] [--capacity-max N]\n";
      return 2;
    }
  }
  if (quick) {
    reps = std::min(reps, 3u);
    iters = std::min(iters, 2u);
  }
  if (!capacity_max_set) capacity_max = quick ? 0 : 1'000'000;

  bench::print_header(
      "Search hot-path throughput: optimized engine vs pre-PR reference",
      "scheduling-capacity model of Sec. 4.1 (vertex budget = Q_s / cost)",
      "optimized >= 2x vertices/sec on the FIG5 m=10 n=1000 cell");

  std::ostringstream json;
  json << "{\n  \"bench\": \"bench_search_throughput\",\n  \"mode\": \""
       << (quick ? "quick" : "full") << "\",\n  \"reps\": " << reps
       << ",\n  \"iters\": " << iters << ",\n  \"configs\": [\n";

  std::cout << "cell                            |   vert/s(ref) |  "
               "vert/s(opt) | ns/v(ref) | ns/v(opt) | speedup\n"
            << "--------------------------------+---------------+------------"
               "--+-----------+-----------+--------\n";

  bool first = true;
  double acceptance_speedup = 0;
  for (const Cell& cell : make_cells()) {
    if (quick && !cell.quick) continue;

    const auto net = machine::Interconnect::cut_through(cell.m, msec(5));
    std::vector<PhaseInput> inputs;
    for (std::uint32_t rep = 0; rep < reps; ++rep) {
      inputs.push_back(make_input(cell, rep));
    }

    // Safety: perf numbers only count if both engines agree bit-for-bit.
    for (const PhaseInput& in : inputs) {
      const SearchResult fast = search::SearchEngine(cell.config)
                                    .run(in.set, in.base_loads, in.delivery,
                                         net, in.budget);
      const SearchResult ref =
          search::reference::run(cell.config, in.set.tasks(), in.base_loads,
                                 in.delivery, net, in.budget);
      require_identical(fast, ref, cell.name);
      // A search that places nothing with budget to spare expands only the
      // root, and the pipeline fast-forwards the phases that would repeat
      // it, so timing such a cell would not time a tree walk.
      if (fast.schedule.empty() && !fast.stats.budget_exhausted) {
        std::cerr << "FATAL: " << cell.name
                  << " places nothing within its budget; it would time "
                     "only a root expansion\n";
        std::exit(1);
      }
    }

    const EngineNumbers ref = measure(
        inputs, net, iters, [&](const PhaseInput& in, const auto& n) {
          return search::reference::run(cell.config, in.set.tasks(),
                                        in.base_loads, in.delivery, n,
                                        in.budget);
        });
    const EngineNumbers opt = measure(
        inputs, net, iters, [&](const PhaseInput& in, const auto& n) {
          return search::SearchEngine(cell.config)
              .run(in.set, in.base_loads, in.delivery, n, in.budget);
        });
    const double speedup = ref.vertices_per_sec > 0
                               ? opt.vertices_per_sec / ref.vertices_per_sec
                               : 0;
    if (cell.name == "fig5_m10_n1000_dfs_assign") acceptance_speedup = speedup;

    std::cout << cell.name;
    for (std::size_t pad = cell.name.size(); pad < 32; ++pad) std::cout << ' ';
    std::cout << "| " << std::uint64_t(ref.vertices_per_sec) << " | "
              << std::uint64_t(opt.vertices_per_sec) << " | "
              << exp::fmt(ref.ns_per_vertex, 2) << " | "
              << exp::fmt(opt.ns_per_vertex, 2) << " | "
              << exp::fmt(speedup, 2) << "x\n";

    if (!first) json << ",\n";
    first = false;
    json << "   {\"config\": \"" << cell.name << "\", \"n\": " << cell.n
         << ", \"m\": " << cell.m << ", \"strategy\": \""
         << strategy_name(cell.config) << "\", \"task_order\": \""
         << order_name(cell.config) << "\", \"representation\": \""
         << repr_name(cell.config)
         << "\", \"vertex_budget\": " << (std::uint64_t{200} * cell.n)
         << ", \"vertices_per_run\": " << (opt.vertices / (reps * iters))
         << ",\n";
    json_engine(json, "reference", ref);
    json << ",\n";
    json_engine(json, "optimized", opt);
    json << ",\n    \"speedup_vertices_per_sec\": " << exp::fmt(speedup, 3)
         << "}";
  }
  json << "\n  ],\n  \"machine\": " << bench::machine_json() << ",\n";

  // ---- capacity table: 10^5 and 10^6 tasks with memory columns ---------
  // Schedule-preserving by proof at 10^5 (bit-identical to the reference)
  // and by oracle at 10^6 (full invariant re-derivation) — the reference's
  // per-vertex node heap makes a 10^7 vertex replay the memory bottleneck,
  // not the engine under test.
  json << "  \"capacity_max\": " << capacity_max << ",\n  \"capacity\": [\n";
  std::cout << "\ncapacity sweep (--capacity-max "
            << capacity_max << ")\n"
            << "cell                            |  vert/s(opt) | ns/v(opt) | "
               "peak_rss | workspace\n"
            << "--------------------------------+--------------+-----------+-"
               "---------+----------\n";
  bool first_cap = true;
  for (const std::uint32_t cap_n : {100'000u, 1'000'000u}) {
    if (std::uint64_t{cap_n} > capacity_max) continue;
    const std::uint32_t cap_m = 10;
    const SimDuration cap_comm = usec(200);
    const auto net = machine::Interconnect::cut_through(cap_m, cap_comm);
    const std::string name =
        "capacity_n" + std::to_string(cap_n) + "_m" + std::to_string(cap_m);
    const PhaseInput in = make_capacity_input(cap_n, cap_m, 0);
    SearchConfig cfg;  // RT-SADS defaults: DFS, assignment-oriented, CE.

    // Proof obligations before any timing counts.
    const search::SearchEngine engine(cfg);
    const SearchResult opt_result =
        engine.run(in.set, in.base_loads, in.delivery, net, in.budget);
    check_capacity_invariants(opt_result, in, cap_m, cap_comm, name);
    bool ref_checked = false;
    if (cap_n <= 100'000u) {
      const SearchResult ref_result = search::reference::run(
          cfg, in.set.tasks(), in.base_loads, in.delivery, net, in.budget);
      require_identical(opt_result, ref_result, name);
      ref_checked = true;
    }
    // Timing: the sequential engine on the pooled warm arena.
    const std::uint32_t cap_iters = cap_n >= 1'000'000u ? 1 : 2;
    std::uint64_t total_ns = 0, total_vertices = 0;
    for (std::uint32_t it = 0; it < cap_iters; ++it) {
      const auto t0 = std::chrono::steady_clock::now();
      const SearchResult r =
          engine.run(in.set, in.base_loads, in.delivery, net, in.budget);
      total_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      total_vertices += r.stats.vertices_generated;
    }
    const double secs = double(total_ns) * 1e-9;
    const double vps = secs > 0 ? double(total_vertices) / secs : 0;
    const double nspv =
        total_vertices > 0 ? double(total_ns) / double(total_vertices) : 0;
    const std::uint64_t rss = peak_rss_bytes();
    const std::uint64_t workspace = search::thread_workspace_peak_bytes();

    std::cout << name;
    for (std::size_t pad = name.size(); pad < 32; ++pad) std::cout << ' ';
    std::cout << "| " << std::uint64_t(vps) << " | " << exp::fmt(nspv, 2)
              << " | " << (rss >> 20) << "M | " << (workspace >> 20)
              << "M\n";

    if (!first_cap) json << ",\n";
    first_cap = false;
    json << "   {\"config\": \"" << name << "\", \"n\": " << cap_n
         << ", \"m\": " << cap_m
         << ", \"vertex_budget\": " << in.budget
         << ", \"vertices_per_run\": " << (total_vertices / cap_iters)
         << ", \"vertices_per_sec\": " << std::uint64_t(vps)
         << ", \"ns_per_vertex\": " << exp::fmt(nspv, 2)
         << ", \"reached_leaf\": true"
         << ", \"reference_checked\": " << (ref_checked ? "true" : "false")
         << ", \"peak_rss_bytes\": " << rss
         << ", \"workspace_peak_bytes\": " << workspace << "}";
  }
  json << "\n  ]\n}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << json.str();
  std::cout << "\nwrote " << out_path << "\n";
  std::cout << "acceptance (fig5_m10_n1000_dfs_assign) speedup: "
            << exp::fmt(acceptance_speedup, 2) << "x (target >= 2x)\n";
  return 0;
}
