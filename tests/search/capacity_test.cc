// Capacity regression suite for the lifted 65535-task cap: the search node
// holds 32-bit depths, so batches beyond 65535 tasks must schedule
// correctly — proved bit-identically against the frozen reference engine,
// which never had the cap. Also pins the 65535/65536 boundary a 16-bit
// depth could not cross, bitset word-boundary sizes, and the m=1 / m=64
// worker-count extremes.
//
// The structural limit itself (kMaxBatchTasks) is asserted as a constant:
// exercising the InvalidArgument path at runtime would need a 2^30-task
// vector (~70 GB of Task objects), so the guard is covered by the REQUIRE
// in SearchEngine::run and the compile-time pin below.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "machine/interconnect.h"
#include "search/engine.h"
#include "support/reference_engine.h"

namespace rtds::search {
namespace {

using tasks::AffinitySet;
using tasks::ProcessorId;

static_assert(kMaxBatchTasks == (std::uint32_t{1} << 30),
              "structural batch cap moved — update docs/ARCHITECTURE.md");

struct Scenario {
  std::vector<Task> batch;
  std::vector<SimDuration> base_loads;
  SimTime delivery_time{SimTime::zero()};
  std::uint32_t num_workers{1};
  SimDuration comm{SimDuration::zero()};
  std::uint64_t vertex_budget{1};
};

/// Generous capacity scenario: every task is feasible on every affinity
/// holder even if one worker absorbed the whole batch, so depth-first
/// search walks straight to a leaf at depth n with no backtracking — the
/// shape that makes an n=65536 reference run tractable (O(n * m)
/// evaluations) while still taking depths past 16 bits.
Scenario make_capacity_scenario(Xoshiro256ss& rng, std::uint32_t n,
                                std::uint32_t m) {
  Scenario s;
  s.num_workers = m;
  s.comm = usec(200);
  s.delivery_time = SimTime::zero() + usec(5000);
  // Upper bound on any completion offset: all n tasks on one worker.
  const std::int64_t horizon_us =
      std::int64_t{n} * 1500 + 1'000'000;
  s.batch.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Task& t = s.batch[i];
    t.id = i;
    t.processing = usec(rng.uniform_int(100, 1000));
    t.deadline = s.delivery_time + usec(horizon_us);
    if (rng.bernoulli(0.2)) {
      t.earliest_start = SimTime::zero() + usec(rng.uniform_int(0, 4000));
    }
    // Mixed affinities so the Fig. 4 test sees real bit patterns, not
    // just all-ones affinity words.
    if (rng.bernoulli(0.7)) {
      t.affinity = AffinitySet::all(m);
    } else {
      const auto holders = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
      for (std::uint32_t h = 0; h < holders; ++h) {
        t.affinity.add(static_cast<ProcessorId>(rng.uniform_int(0, m - 1)));
      }
    }
  }
  s.base_loads.assign(m, SimDuration::zero());
  s.vertex_budget = std::uint64_t{n} * m + 1000;
  return s;
}

/// Adversarial scenario at a pinned (n, m): the equivalence_test generator
/// reshaped to exact sizes, for word-boundary and lane-remainder sweeps.
Scenario make_sized_scenario(Xoshiro256ss& rng, std::uint32_t n,
                             std::uint32_t m) {
  Scenario s;
  s.num_workers = m;
  s.comm = usec(rng.uniform_int(0, 8000));
  s.delivery_time = SimTime::zero() + usec(rng.uniform_int(0, 20000));
  s.batch.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Task& t = s.batch[i];
    t.id = i;
    t.processing = usec(rng.uniform_int(100, 10000));
    // Straddles the feasible/hopeless boundary: dead ends, unplaceable
    // skips, and bulk budget charges all occur.
    t.deadline = SimTime::zero() + usec(rng.uniform_int(500, 90000));
    if (rng.bernoulli(0.3)) {
      t.earliest_start = SimTime::zero() + usec(rng.uniform_int(0, 40000));
    }
    if (rng.bernoulli(0.25)) {
      t.affinity = AffinitySet::all(m);
    } else {
      const auto holders = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
      for (std::uint32_t h = 0; h < holders; ++h) {
        t.affinity.add(static_cast<ProcessorId>(rng.uniform_int(0, m - 1)));
      }
    }
    if (m >= 2 && rng.bernoulli(0.2)) {
      t.workers_required =
          static_cast<std::uint32_t>(rng.uniform_int(2, m + 1));
    }
  }
  s.base_loads.resize(m);
  for (auto& load : s.base_loads) {
    load = rng.bernoulli(0.5) ? SimDuration::zero()
                              : usec(rng.uniform_int(0, 15000));
  }
  switch (rng.uniform_int(0, 2)) {
    case 0:
      s.vertex_budget = std::uint64_t(rng.uniform_int(1, 60));
      break;
    case 1:
      s.vertex_budget = std::uint64_t(rng.uniform_int(60, 2000));
      break;
    default:
      s.vertex_budget = std::uint64_t(rng.uniform_int(2000, 30000));
      break;
  }
  return s;
}

void expect_identical(const SearchResult& fast, const SearchResult& ref,
                      const std::string& where) {
  ASSERT_EQ(fast.stats.vertices_generated, ref.stats.vertices_generated)
      << where;
  ASSERT_EQ(fast.stats.expansions, ref.stats.expansions) << where;
  ASSERT_EQ(fast.stats.backtracks, ref.stats.backtracks) << where;
  ASSERT_EQ(fast.stats.max_depth, ref.stats.max_depth) << where;
  ASSERT_EQ(fast.stats.reached_leaf, ref.stats.reached_leaf) << where;
  ASSERT_EQ(fast.stats.dead_end, ref.stats.dead_end) << where;
  ASSERT_EQ(fast.stats.budget_exhausted, ref.stats.budget_exhausted) << where;
  ASSERT_EQ(fast.schedule.size(), ref.schedule.size()) << where;
  for (std::size_t i = 0; i < fast.schedule.size(); ++i) {
    const Assignment& a = fast.schedule[i];
    const Assignment& b = ref.schedule[i];
    ASSERT_EQ(a.task_index, b.task_index) << where << " depth " << i;
    ASSERT_EQ(a.worker, b.worker) << where << " depth " << i;
    ASSERT_EQ(a.exec_cost, b.exec_cost) << where << " depth " << i;
    ASSERT_EQ(a.prev_ce, b.prev_ce) << where << " depth " << i;
    ASSERT_EQ(a.prev_max_ce, b.prev_max_ce) << where << " depth " << i;
    ASSERT_EQ(a.start_offset, b.start_offset) << where << " depth " << i;
    ASSERT_EQ(a.end_offset, b.end_offset) << where << " depth " << i;
  }
}

void run_both(const SearchConfig& cfg, const Scenario& s,
              const std::string& where, bool expect_leaf = false) {
  const auto net =
      machine::Interconnect::cut_through(s.num_workers, s.comm);
  const SearchResult fast = SearchEngine(cfg).run(
      s.batch, s.base_loads, s.delivery_time, net, s.vertex_budget);
  const SearchResult ref = reference::run(cfg, s.batch, s.base_loads,
                                          s.delivery_time, net,
                                          s.vertex_budget);
  expect_identical(fast, ref, where);
  if (expect_leaf) {
    ASSERT_TRUE(fast.stats.reached_leaf) << where;
    ASSERT_EQ(fast.schedule.size(), s.batch.size()) << where;
    ASSERT_EQ(fast.stats.max_depth, s.batch.size()) << where;
  }
}

TEST(SearchCapacityTest, N65536SchedulesBitIdenticalToReference) {
  // 65536 is the first size a 16-bit depth cannot hold: depth at the leaf
  // is 65536 and would overflow uint16 to 0. The regression for the lifted
  // cap: the engine must walk to the full-depth leaf and match the
  // (never-capped) reference exactly.
  Xoshiro256ss rng(0xCAB0057ULL);
  const Scenario s = make_capacity_scenario(rng, 65536, 4);
  for (const bool lb : {true, false}) {
    SearchConfig cfg;
    cfg.strategy = SearchStrategy::kDepthFirst;
    cfg.representation = Representation::kAssignmentOriented;
    cfg.use_load_balance_cost = lb;
    run_both(cfg, s, lb ? "n65536/ce" : "n65536/nolb",
             /*expect_leaf=*/true);
  }
}

TEST(SearchCapacityTest, N65536BudgetExhaustionMatchesReference) {
  // Budget dies mid-walk long before the leaf: the engine must charge,
  // bulk-charge, and terminate exactly like the reference.
  Xoshiro256ss rng(0xCAB0058ULL);
  Scenario s = make_capacity_scenario(rng, 65536, 4);
  s.vertex_budget = 50'000;
  SearchConfig cfg;
  run_both(cfg, s, "n65536/starved");
}

TEST(SearchCapacityTest, NarrowWideBoundaryDispatch) {
  // 65535 is the largest batch a 16-bit depth could index and 65536 the
  // first it could not; both must be bit-identical to the reference.
  Xoshiro256ss rng(0xB0DA7ULL);
  for (const std::uint32_t n : {65535u, 65536u}) {
    const Scenario s = make_capacity_scenario(rng, n, 2);
    SearchConfig cfg;
    run_both(cfg, s, "boundary n=" + std::to_string(n),
             /*expect_leaf=*/true);
  }
}

TEST(SearchCapacityTest, WordBoundarySizesMatchReference) {
  // n exactly at unassigned-bitset word boundaries: final word full (64,
  // 128) or holding a single bit (65). The task-mask batched path and the
  // word scans must agree with the reference in both shapes.
  Xoshiro256ss rng(0x40DB0BDULL);
  SearchConfig assign_dfs;
  SearchConfig assign_bfs;
  assign_bfs.strategy = SearchStrategy::kBestFirst;
  SearchConfig seq_dfs;
  seq_dfs.representation = Representation::kSequenceOriented;
  SearchConfig pruned;
  pruned.max_successors = 3;
  const SearchConfig configs[] = {assign_dfs, assign_bfs, seq_dfs, pruned};
  for (const std::uint32_t n : {63u, 64u, 65u, 127u, 128u}) {
    for (std::uint32_t rep = 0; rep < 10; ++rep) {
      const Scenario s = make_sized_scenario(rng, n, 6);
      for (std::size_t c = 0; c < std::size(configs); ++c) {
        run_both(configs[c], s,
                 "word n=" + std::to_string(n) + " rep=" +
                     std::to_string(rep) + " cfg=" + std::to_string(c));
      }
    }
  }
}

TEST(SearchCapacityTest, LaneRemainderExtremesMatchReference) {
  // m=1 and m=64, the ends of the worker range one affinity word covers:
  // at m=64 the affinity test shifts by up to 63 bits, in evaluate_fast
  // and in the sequence-oriented task-word kernel alike.
  Xoshiro256ss rng(0x1A4E5ULL);
  SearchConfig assign_dfs;
  SearchConfig seq_dfs;
  seq_dfs.representation = Representation::kSequenceOriented;
  for (const std::uint32_t m : {1u, 64u}) {
    for (std::uint32_t rep = 0; rep < 12; ++rep) {
      const Scenario s = make_sized_scenario(rng, 256, m);
      run_both(assign_dfs, s,
               "m=" + std::to_string(m) + " rep=" + std::to_string(rep) +
                   " assign");
      run_both(seq_dfs, s,
               "m=" + std::to_string(m) + " rep=" + std::to_string(rep) +
                   " seq");
    }
  }
}

TEST(SearchCapacityTest, WorkspacePeakTracksWideRuns) {
  // The engine reports per-thread workspace bytes for the bench memory
  // column; a run past 65535 tasks must register a nonzero, plausible
  // peak.
  // Each gtest case is its own ctest process, so drive a run here rather
  // than relying on a sibling test having populated the counters.
  Xoshiro256ss rng(0x9A4A11E1ULL);
  const Scenario s = make_capacity_scenario(rng, 65536, 2);
  SearchConfig cfg;
  (void)SearchEngine(cfg).run(
      s.batch, s.base_loads, s.delivery_time,
      machine::Interconnect::cut_through(s.num_workers, s.comm),
      s.vertex_budget);
  EXPECT_GE(thread_workspace_peak_bytes(), thread_workspace_bytes());
  EXPECT_GT(thread_workspace_peak_bytes(), 0u);
}

TEST(SearchCapacityTest, RetentionBoundCoversEveryWorkspaceBuffer) {
  // A depth-first walk at m = 64 leaves 63 siblings on the candidate list
  // per level. A node is a 16-byte (task, worker) record and the list a
  // stack of 4-byte node ids, so 280,000 levels are needed to grow the
  // stack past 2^24 entries (128 MB of capacity) next to about 287 MB of
  // arena.
  // The 64 MB bound is on the whole workspace: a run that leaves more
  // releases the arena, the stack, the snapshot and every other buffer.
  // A run under the bound keeps its buffers for the next one.
  constexpr std::size_t kRetainBytes = std::size_t{64} << 20;
  constexpr std::uint32_t kTasks = 280000;
  Xoshiro256ss rng(0x2E7A1ULL);
  const Scenario s = make_capacity_scenario(rng, kTasks, 64);
  const SearchResult r = SearchEngine(SearchConfig{}).run(
      s.batch, s.base_loads, s.delivery_time,
      machine::Interconnect::cut_through(s.num_workers, s.comm),
      s.vertex_budget);
  ASSERT_TRUE(r.stats.reached_leaf);
  EXPECT_GT(thread_workspace_peak_bytes(), 2 * kRetainBytes);
  EXPECT_LE(thread_workspace_bytes(), kRetainBytes);

  const Scenario small = make_capacity_scenario(rng, 1000, 4);
  const SearchResult kept = SearchEngine(SearchConfig{}).run(
      small.batch, small.base_loads, small.delivery_time,
      machine::Interconnect::cut_through(small.num_workers, small.comm),
      small.vertex_budget);
  ASSERT_TRUE(kept.stats.reached_leaf);
  EXPECT_GT(thread_workspace_bytes(), 0u);
  EXPECT_LE(thread_workspace_bytes(), kRetainBytes);
}

}  // namespace
}  // namespace rtds::search
