// Golden equivalence suite for the search hot-path overhaul: the optimized
// SearchEngine must return a bit-identical SearchResult — every schedule
// field, every stat counter, every termination flag — to the frozen
// pre-optimization snapshot (tests/support/reference_engine.h) on randomized
// scenarios covering all strategy / task-order / representation
// combinations, including budget-exhaustion and dead-end paths. Any drift
// in the fast path (bulk budget charging, bitset scans, O(1) pop, heap
// replacement, insertion sort) fails here rather than subtly moving a
// figure.
#include <gtest/gtest.h>

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

struct Scenario {
  std::vector<Task> batch;
  std::vector<SimDuration> base_loads;
  SimTime delivery_time{SimTime::zero()};
  std::uint32_t num_workers{1};
  SimDuration comm{SimDuration::zero()};
  std::uint64_t vertex_budget{1};
};

/// Randomized phase input. Deliberately adversarial: mixed tight/hopeless
/// deadlines (dead ends and unplaceable skips), start-time constraints
/// (idle gaps), narrow affinities, uneven base loads, and budgets from
/// starved to generous (both exhaustion paths).
Scenario make_scenario(Xoshiro256ss& rng) {
  Scenario s;
  s.num_workers = static_cast<std::uint32_t>(rng.uniform_int(1, 12));
  s.comm = usec(rng.uniform_int(0, 8000));
  s.delivery_time = SimTime::zero() + usec(rng.uniform_int(0, 20000));

  const auto n = static_cast<std::uint32_t>(rng.uniform_int(1, 40));
  s.batch.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Task& t = s.batch[i];
    t.id = i;
    t.processing = usec(rng.uniform_int(100, 10000));
    // Deadline band straddles the feasible/hopeless boundary.
    t.deadline = SimTime::zero() + usec(rng.uniform_int(500, 90000));
    if (rng.bernoulli(0.3)) {
      t.earliest_start = SimTime::zero() + usec(rng.uniform_int(0, 40000));
    }
    if (rng.bernoulli(0.25)) {
      t.affinity = AffinitySet::all(s.num_workers);
    } else {
      const auto holders =
          static_cast<std::uint32_t>(rng.uniform_int(1, 3));
      for (std::uint32_t h = 0; h < holders; ++h) {
        t.affinity.add(static_cast<ProcessorId>(
            rng.uniform_int(0, s.num_workers - 1)));
      }
    }
    // Gang/moldable jobs: a quarter of the tasks on multi-worker machines
    // need a contiguous block of workers. Widths occasionally exceed the
    // machine (structurally unplaceable — both engines must agree on that
    // too).
    if (s.num_workers >= 2 && rng.bernoulli(0.25)) {
      t.workers_required = static_cast<std::uint32_t>(
          rng.uniform_int(2, s.num_workers + 1));
    }
  }

  s.base_loads.resize(s.num_workers);
  for (auto& load : s.base_loads) {
    load = rng.bernoulli(0.5) ? SimDuration::zero()
                              : usec(rng.uniform_int(0, 15000));
  }

  // Budgets: starved (exhaustion mid-expansion), moderate, and generous
  // (leaf or dead-end termination).
  switch (rng.uniform_int(0, 2)) {
    case 0:
      s.vertex_budget = std::uint64_t(rng.uniform_int(1, 25));
      break;
    case 1:
      s.vertex_budget = std::uint64_t(rng.uniform_int(25, 400));
      break;
    default:
      s.vertex_budget = std::uint64_t(rng.uniform_int(400, 20000));
      break;
  }
  return s;
}

std::string describe(const SearchConfig& c) {
  std::string out;
  out += c.representation == Representation::kAssignmentOriented ? "assign"
                                                                 : "seq";
  out += c.strategy == SearchStrategy::kDepthFirst ? "/dfs" : "/bfs";
  out += c.task_order == TaskOrder::kBatchOrder ? "/batch"
         : c.task_order == TaskOrder::kEarliestDeadline ? "/edf"
                                                        : "/slack";
  out += c.use_load_balance_cost ? "/ce" : "/nolb";
  return out;
}

void expect_identical(const SearchResult& fast, const SearchResult& ref,
                      const SearchConfig& cfg, std::uint64_t scenario) {
  const std::string where =
      describe(cfg) + " scenario " + std::to_string(scenario);
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

/// All strategy / order / representation combinations the engines accept,
/// with both cost-function settings and the pruning/ablation toggles that
/// change expansion control flow.
std::vector<SearchConfig> all_configs() {
  std::vector<SearchConfig> configs;
  for (const auto representation : {Representation::kAssignmentOriented,
                                    Representation::kSequenceOriented}) {
    for (const auto strategy :
         {SearchStrategy::kDepthFirst, SearchStrategy::kBestFirst}) {
      for (const auto order :
           {TaskOrder::kBatchOrder, TaskOrder::kEarliestDeadline,
            TaskOrder::kMinSlack}) {
        for (const bool lb : {true, false}) {
          SearchConfig c;
          c.representation = representation;
          c.strategy = strategy;
          c.task_order = order;
          c.use_load_balance_cost = lb;
          configs.push_back(c);
        }
      }
    }
  }
  // Control-flow variants: strict paper readings and pruning caps.
  SearchConfig strict;
  strict.skip_unplaceable_tasks = false;
  configs.push_back(strict);
  SearchConfig strict_seq;
  strict_seq.representation = Representation::kSequenceOriented;
  strict_seq.skip_saturated_processors = false;
  configs.push_back(strict_seq);
  SearchConfig least_loaded;
  least_loaded.representation = Representation::kSequenceOriented;
  least_loaded.level_processor_order = LevelProcessorOrder::kLeastLoaded;
  configs.push_back(least_loaded);
  SearchConfig pruned;
  pruned.max_successors = 3;
  pruned.max_depth = 8;
  configs.push_back(pruned);
  SearchConfig current_path;
  current_path.return_deepest = false;
  configs.push_back(current_path);
  for (const auto po : {ProcessorOrder::kIndexOrder, ProcessorOrder::kMinCommCost}) {
    SearchConfig c;
    c.use_load_balance_cost = false;
    c.processor_order = po;
    configs.push_back(c);
  }
  return configs;
}

TEST(SearchEquivalenceTest, BitIdenticalToReferenceAcrossFuzzScenarios) {
  // >= 200 scenarios x ~30 configs: every scenario is run under every
  // configuration through both engines.
  constexpr std::uint64_t kScenarios = 220;
  const std::vector<SearchConfig> configs = all_configs();
  Xoshiro256ss rng(0x5EA4C4E05ULL);
  std::uint64_t exhausted = 0, dead_ends = 0, leaves = 0;
  for (std::uint64_t sc = 0; sc < kScenarios; ++sc) {
    const Scenario s = make_scenario(rng);
    const auto net =
        machine::Interconnect::cut_through(s.num_workers, s.comm);
    for (const SearchConfig& cfg : configs) {
      const SearchResult fast = SearchEngine(cfg).run(
          s.batch, s.base_loads, s.delivery_time, net, s.vertex_budget);
      const SearchResult ref = reference::run(
          cfg, s.batch, s.base_loads, s.delivery_time, net, s.vertex_budget);
      expect_identical(fast, ref, cfg, sc);
      exhausted += fast.stats.budget_exhausted ? 1 : 0;
      dead_ends += fast.stats.dead_end ? 1 : 0;
      leaves += fast.stats.reached_leaf ? 1 : 0;
    }
  }
  // The sweep must actually exercise every termination path.
  EXPECT_GT(exhausted, 100u);
  EXPECT_GT(dead_ends, 100u);
  EXPECT_GT(leaves, 100u);
}

TEST(SearchEquivalenceTest, MeshRoutingStillIdentical) {
  // The store-and-forward model takes the slow comm path inside
  // evaluate_fast; verify it too matches the reference.
  Xoshiro256ss rng(0x3E5B);
  for (std::uint64_t sc = 0; sc < 40; ++sc) {
    const Scenario s = make_scenario(rng);
    const auto net = machine::Interconnect::mesh(s.num_workers, s.comm);
    for (const auto strategy :
         {SearchStrategy::kDepthFirst, SearchStrategy::kBestFirst}) {
      SearchConfig cfg;
      cfg.strategy = strategy;
      const SearchResult fast = SearchEngine(cfg).run(
          s.batch, s.base_loads, s.delivery_time, net, s.vertex_budget);
      const SearchResult ref = reference::run(
          cfg, s.batch, s.base_loads, s.delivery_time, net, s.vertex_budget);
      expect_identical(fast, ref, cfg, sc);
    }
  }
}

TEST(SearchEquivalenceTest, EmptyBatchAndZeroBudgetMatch) {
  const auto net = machine::Interconnect::cut_through(2, msec(1));
  const SearchConfig cfg;
  const std::vector<Task> empty;
  std::vector<Task> one(1);
  one[0].processing = msec(1);
  one[0].deadline = SimTime::zero() + msec(10);
  one[0].affinity = AffinitySet::all(2);
  const std::vector<SimDuration> loads(2, SimDuration::zero());
  const std::vector<std::pair<const std::vector<Task>*, std::uint64_t>>
      cases{{&empty, 100}, {&one, 0}, {&one, 1}};
  for (const auto& [batch, budget] : cases) {
    const SearchResult fast =
        SearchEngine(cfg).run(*batch, loads, SimTime::zero(), net, budget);
    const SearchResult ref =
        reference::run(cfg, *batch, loads, SimTime::zero(), net, budget);
    expect_identical(fast, ref, cfg, 0);
  }
}

}  // namespace
}  // namespace rtds::search
