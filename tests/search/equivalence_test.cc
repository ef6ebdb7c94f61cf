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

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "machine/interconnect.h"
#include "sched/algorithm.h"
#include "search/engine.h"
#include "support/reference_engine.h"
#include "tasks/batch.h"

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
  configs.push_back(pruned);
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

/// One SearchEngine::run input.
struct Call {
  SearchConfig config;
  std::vector<Task> batch;
  std::vector<SimDuration> base_loads;
  SimTime delivery_time{SimTime::zero()};
  machine::Interconnect net =
      machine::Interconnect::cut_through(1, SimDuration::zero());
  std::uint64_t vertex_budget{1};
};

/// Runs `call` through both engines and requires bit-identical results.
SearchResult run_both(const Call& call, std::uint64_t scenario) {
  SearchResult fast = SearchEngine(call.config)
                          .run(call.batch, call.base_loads, call.delivery_time,
                               call.net, call.vertex_budget);
  const SearchResult ref =
      reference::run(call.config, call.batch, call.base_loads,
                     call.delivery_time, call.net, call.vertex_budget);
  expect_identical(fast, ref, call.config, scenario);
  return fast;
}

/// The scenario under `config`, its base loads lifted by the smallest step
/// after which the reference places nothing with budget to spare. The
/// smallest lift keeps the tasks near the edge of feasibility, so the
/// futile root is proven by comm costs, gang blocks and uneven loads, not
/// only by the bulk lower bound. nullopt when no lift makes it futile.
std::optional<Call> futile_call(const SearchConfig& config, const Scenario& s,
                                const machine::Interconnect& net,
                                Xoshiro256ss& rng) {
  Call call;
  call.config = config;
  call.batch = s.batch;
  call.delivery_time = s.delivery_time;
  call.net = net;
  // A futile root charges at most one vertex per (task, worker) pair, so
  // this budget never runs out on one.
  const std::uint64_t budget =
      std::uint64_t{s.num_workers} * s.batch.size() + 1;
  for (std::int64_t lift_us = 0; lift_us <= 512000;
       lift_us = std::max<std::int64_t>(1000, 2 * lift_us)) {
    call.base_loads = s.base_loads;
    for (SimDuration& load : call.base_loads) load += usec(lift_us);
    const SearchResult r = reference::run(config, call.batch, call.base_loads,
                                          call.delivery_time, net, budget);
    if (r.schedule.empty() && !r.stats.budget_exhausted) {
      call.vertex_budget = r.stats.vertices_generated +
                           std::uint64_t(rng.uniform_int(0, 50));
      return call;
    }
  }
  return std::nullopt;
}

/// A call that follows a futile one, the prior call, and whether the
/// futile root dominates it: the same batch, config and interconnect, no
/// worker free earlier and a budget covering the futile call's charge.
struct FollowUp {
  std::string kind;
  Call prior;
  Call call;
  bool dominated{false};
};

/// The follow-ups of the futile call `base`, which charged `vertices`:
/// (a) calls its root dominates, and (b) calls that differ from one in a
/// single way.
std::vector<FollowUp> follow_ups(const Call& base, std::uint64_t vertices,
                                 const SearchConfig& other_config,
                                 std::uint64_t scenario, Xoshiro256ss& rng) {
  const std::uint32_t m = base.net.num_workers();
  const auto i = static_cast<std::size_t>(scenario % base.batch.size());
  std::vector<FollowUp> out;
  const auto add = [&](std::string kind, bool dominated, auto mutate) {
    FollowUp f{std::move(kind), base, base, dominated};
    mutate(f.call, f.prior);
    out.push_back(std::move(f));
  };

  // (a) Dominated: no worker free earlier, budget covers the charge.
  add("same call", true, [](Call&, Call&) {});
  add("later delivery", true, [&](Call& c, Call&) {
    c.delivery_time += usec(rng.uniform_int(1, 5000));
  });
  add("larger base loads", true, [&](Call& c, Call&) {
    for (SimDuration& load : c.base_loads) {
      load += usec(rng.uniform_int(0, 3000));
    }
    c.base_loads[rng.uniform_int(0, m - 1)] += usec(1);
  });
  add("later delivery onto drained loads", true, [&](Call& c, Call&) {
    const SimDuration shift = usec(rng.uniform_int(1, 5000));
    c.delivery_time += shift;
    for (SimDuration& load : c.base_loads) {
      load = load > shift ? load - shift : SimDuration::zero();
    }
  });
  add("larger budget", true, [&](Call& c, Call&) {
    c.vertex_budget += std::uint64_t(rng.uniform_int(1, 1000));
  });
  add("budget equal to the charge", true,
      [&](Call& c, Call&) { c.vertex_budget = vertices; });

  // (b) Not dominated, or not the same search.
  const auto k = static_cast<std::uint32_t>(rng.uniform_int(0, m - 1));
  if (base.base_loads[k] > SimDuration::zero()) {
    add("one worker free earlier", false,
        [&](Call& c, Call&) { c.base_loads[k] -= usec(1); });
  } else if (base.delivery_time > SimTime::zero()) {
    add("one worker free earlier", false, [&](Call& c, Call&) {
      c.delivery_time = c.delivery_time - usec(1);
      for (std::uint32_t j = 0; j < m; ++j) {
        if (j != k) c.base_loads[j] += usec(1);
      }
    });
  }
  add("budget below the charge", false,
      [&](Call& c, Call&) { c.vertex_budget = vertices - 1; });
  add("deadline", false,
      [&](Call& c, Call&) { c.batch[i].deadline += usec(1); });
  add("processing", false,
      [&](Call& c, Call&) { c.batch[i].processing -= usec(1); });
  add("earliest start", false, [&](Call& c, Call&) {
    Task& t = c.batch[i];
    t.earliest_start = std::max(t.earliest_start, base.delivery_time) + usec(1);
  });
  add("affinity", false, [&](Call& c, Call&) {
    AffinitySet& a = c.batch[i].affinity;
    const auto p = static_cast<ProcessorId>(
        (a.to_vector().front() + 1) % std::max(m, 2u));
    if (a.contains(p)) {
      a.remove(p);
    } else {
      a.add(p);
    }
  });
  add("width", false,
      [&](Call& c, Call&) { c.batch[i].workers_required += 1; });
  add("another config", false,
      [&](Call& c, Call&) { c.config = other_config; });
  add("another interconnect", false, [&](Call& c, Call&) {
    const SimDuration cost = base.net.link_cost() + usec(1);
    c.net = base.net.model() == machine::RoutingModel::kCutThrough
                ? machine::Interconnect::cut_through(m, cost)
                : machine::Interconnect::mesh(m, cost);
  });
  add("after a run that exhausted its budget", false,
      [&](Call&, Call& prior) { prior.vertex_budget = vertices - 1; });
  return out;
}

TEST(SearchEquivalenceTest, CallsAfterAFutileRootMatchReference) {
  // Every config, over fuzz scenarios, all-gang batches and mesh routing:
  // one futile call, then each follow-up. Every result must equal the
  // reference. Where sched::TreeSearchAlgorithm says a futile answer
  // persists, each dominated follow-up must also answer empty with the
  // futile call's stats: the rule the pipeline's fast-forward relies on.
  constexpr std::uint64_t kScenarios = 60;
  const std::vector<SearchConfig> configs = all_configs();
  Xoshiro256ss rng(0xF07113ULL);
  std::uint64_t persisted = 0, other = 0, cases = 0;
  for (std::uint64_t sc = 0; sc < kScenarios; ++sc) {
    Scenario s = make_scenario(rng);
    if (sc % 3 == 2 && s.num_workers >= 2) {
      for (Task& t : s.batch) {
        t.workers_required = static_cast<std::uint32_t>(
            rng.uniform_int(2, s.num_workers));
      }
    }
    const auto net =
        sc % 2 == 1 ? machine::Interconnect::mesh(s.num_workers, s.comm)
                    : machine::Interconnect::cut_through(s.num_workers, s.comm);
    for (std::size_t ci = 0; ci < configs.size(); ++ci) {
      const std::optional<Call> base = futile_call(configs[ci], s, net, rng);
      if (!base) continue;
      ++cases;
      const bool persists =
          sched::TreeSearchAlgorithm("search", configs[ci])
              .futile_answer_persists();
      const SearchResult first = run_both(*base, sc);
      ASSERT_TRUE(first.schedule.empty());
      ASSERT_FALSE(first.stats.budget_exhausted);
      const std::uint64_t vertices = first.stats.vertices_generated;
      for (const FollowUp& f :
           follow_ups(*base, vertices, configs[(ci + 1) % configs.size()],
                      sc, rng)) {
        SCOPED_TRACE(describe(configs[ci]) + " scenario " +
                     std::to_string(sc) + ": " + f.kind);
        (void)run_both(f.prior, sc);
        const SearchResult r = run_both(f.call, sc);
        if (!(f.dominated && persists)) {
          ++other;
          continue;
        }
        ++persisted;
        ASSERT_TRUE(r.schedule.empty());
        ASSERT_EQ(r.stats, first.stats);
      }
    }
  }
  // Most (scenario, config) pairs become futile under some lift.
  EXPECT_GT(cases, kScenarios * configs.size() / 2);
  EXPECT_GT(persisted, 1000u);
  EXPECT_GT(other, 1000u);
}

/// A task whose deadline and d - p come from small sets, so tasks a batch
/// keeps from the previous root and new arrivals tie under both sort keys.
Task tied_task(Xoshiro256ss& rng, std::uint32_t m, std::uint32_t id) {
  Task t;
  t.id = id;
  t.processing = msec(rng.uniform_int(1, 3));
  t.deadline = SimTime::zero() + msec(4 * rng.uniform_int(2, 7));
  if (rng.bernoulli(0.1)) {
    t.earliest_start = SimTime::zero() + msec(rng.uniform_int(0, 6));
  }
  if (rng.bernoulli(0.5)) {
    t.affinity = AffinitySet::all(m);
  } else {
    const auto holders = static_cast<std::uint32_t>(rng.uniform_int(1, 2));
    for (std::uint32_t h = 0; h < holders; ++h) {
      t.affinity.add(static_cast<ProcessorId>(rng.uniform_int(0, m - 1)));
    }
  }
  return t;
}

TEST(SearchEquivalenceTest, DerivedOrdersMatchOverMutatedBatchSequences) {
  // The pipeline keeps one pending set per run, in its algorithm's order,
  // and searches it in place. Drive phase sequences on one thread the way
  // the pipeline does: cull at the phase's time, search, retire some of the
  // scheduled tasks and leave the others pending (refused deliveries), then
  // merge arrivals, with keys from small sets so pending tasks and arrivals
  // tie. Interleaved: another algorithm's phase over the same order,
  // one-task sets, futile searches repeated at a later delivery time, and
  // unrelated sets that reuse the ids. Every phase runs three ways: in
  // place, through the vector adapter over the set's tasks, and on the
  // reference engine, which sorts every batch from scratch.
  constexpr std::uint64_t kSequences = 40;
  constexpr std::uint32_t kSteps = 60;
  SearchConfig rt_sads;
  SearchConfig d_cols;
  d_cols.representation = Representation::kSequenceOriented;
  d_cols.use_load_balance_cost = false;
  SearchConfig min_slack;
  min_slack.task_order = TaskOrder::kMinSlack;
  SearchConfig seq_min_slack = d_cols;
  seq_min_slack.task_order = TaskOrder::kMinSlack;
  seq_min_slack.strategy = SearchStrategy::kBestFirst;
  SearchConfig batch_order;
  batch_order.task_order = TaskOrder::kBatchOrder;
  SearchConfig seq_batch_order = d_cols;
  seq_batch_order.task_order = TaskOrder::kBatchOrder;
  // Pairs of configurations that keep a set in the same order.
  const SearchConfig configs[][2] = {{rt_sads, d_cols},
                                     {min_slack, seq_min_slack},
                                     {batch_order, seq_batch_order}};

  Xoshiro256ss rng(0x0DE12ED5ULL);
  std::uint64_t phases = 0, readmitted = 0, culled = 0, scheduled = 0;
  std::vector<Task> arrivals;
  std::vector<Task> culled_tasks;
  std::vector<std::uint32_t> retire;
  for (std::uint64_t sq = 0; sq < kSequences; ++sq) {
    const auto m = static_cast<std::uint32_t>(rng.uniform_int(1, 6));
    const auto net = machine::Interconnect::cut_through(
        m, usec(rng.uniform_int(0, 3000)));
    const std::size_t pair = rng.uniform_int(0, std::size(configs) - 1);
    std::size_t config = 0;
    tasks::Batch set(configs[pair][0].task_order);
    std::uint32_t next_id = 0;
    for (std::uint32_t step = 0; step < kSteps; ++step) {
      SCOPED_TRACE("sequence " + std::to_string(sq) + " step " +
                   std::to_string(step));
      bool futile = false;
      const SimTime now = SimTime::zero() + usec(rng.uniform_int(0, 12000));
      switch (rng.uniform_int(0, 9)) {
        case 0: {  // one task
          retire.clear();
          const std::size_t kept =
              set.empty() ? 0 : rng.uniform_int(0, set.size() - 1);
          for (std::uint32_t i = 0; i < set.size(); ++i) {
            if (i != kept) retire.push_back(i);
          }
          set.remove_scheduled(retire);
          break;
        }
        case 1: {  // an unrelated set under the same ids
          set.clear();
          arrivals.clear();
          const auto n = static_cast<std::uint32_t>(rng.uniform_int(2, 30));
          for (std::uint32_t i = 0; i < n; ++i) {
            arrivals.push_back(tied_task(rng, m, i));
          }
          set.merge_arrivals(arrivals);
          break;
        }
        case 2:  // another algorithm's phase over the same order
          config = 1 - config;
          break;
        case 3:  // a root no task fits, searched twice
          futile = true;
          break;
        default: {  // a phase's arrivals, then its cull
          arrivals.clear();
          const auto n = rng.uniform_int(0, 8);
          for (std::int64_t a = 0; a < n; ++a) {
            arrivals.push_back(tied_task(rng, m, next_id++));
          }
          set.merge_arrivals(arrivals);
          (void)set.cull_missed(now, culled_tasks);
          culled += culled_tasks.size();
          break;
        }
      }
      if (set.empty()) {
        arrivals.assign(1, tied_task(rng, m, next_id++));
        set.merge_arrivals(arrivals);
      }

      const SearchConfig& cfg = configs[pair][config];
      std::vector<SimDuration> loads(m);
      for (SimDuration& load : loads) load = usec(rng.uniform_int(0, 4000));
      // Past every deadline nothing fits, and the root is charged once per
      // (task, worker) pair.
      const SimTime delivery = futile ? SimTime::zero() + msec(40) : now;
      const std::uint64_t budget =
          futile ? std::uint64_t{m} * set.size() + 1
                 : std::uint64_t(rng.uniform_int(1, 3000));
      const SearchEngine engine(cfg);
      const SearchResult in_place =
          engine.run(set, loads, delivery, net, budget);
      expect_identical(in_place,
                       engine.run(set.tasks(), loads, delivery, net, budget),
                       cfg, sq);
      expect_identical(
          in_place,
          reference::run(cfg, set.tasks(), loads, delivery, net, budget), cfg,
          sq);
      ++phases;
      if (futile) {
        ASSERT_TRUE(in_place.schedule.empty());
        const SearchResult again =
            engine.run(set, loads, delivery + usec(1), net, budget);
        expect_identical(again,
                         reference::run(cfg, set.tasks(), loads,
                                        delivery + usec(1), net, budget),
                         cfg, sq);
        continue;
      }
      // Retire the delivered tasks; a refused one stays pending.
      retire.clear();
      for (const Assignment& a : in_place.schedule) {
        if (rng.bernoulli(0.2)) {
          ++readmitted;
        } else {
          retire.push_back(a.task_index);
        }
      }
      std::sort(retire.begin(), retire.end());
      scheduled += retire.size();
      set.remove_scheduled(retire);
    }
  }
  // The sequences merged, culled, retired and readmitted.
  EXPECT_EQ(phases, kSequences * kSteps);
  EXPECT_GT(scheduled, 4000u);
  EXPECT_GT(readmitted, 1000u);
  EXPECT_GT(culled, 500u);
}

/// A D-COLS-shaped phase input: a burst of hundreds of tasks, so a
/// sequence-oriented level branches over hundreds of unassigned tasks.
/// Tight deadlines straddle what the loaded workers can meet, so levels
/// shrink, searches backtrack and almost every budget runs out inside a
/// successor group. Loose ones fit every task and come with the budget to
/// reach a leaf. Gangs and mesh routing take the scalar loop instead of
/// the mask kernels.
Scenario make_wide_scenario(Xoshiro256ss& rng, bool gangs, bool loose) {
  Scenario s;
  s.num_workers = static_cast<std::uint32_t>(rng.uniform_int(2, 10));
  s.comm = usec(rng.uniform_int(0, 3000));
  s.delivery_time = SimTime::zero() + usec(rng.uniform_int(0, 5000));
  const auto n = static_cast<std::uint32_t>(
      loose ? rng.uniform_int(100, 250) : rng.uniform_int(200, 700));
  const std::int64_t horizon_us = loose ? std::int64_t{n} * 6000 : 12000;
  s.batch.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Task& t = s.batch[i];
    t.id = i;
    t.processing = usec(rng.uniform_int(100, 3000));
    t.deadline = s.delivery_time +
                 usec(loose ? horizon_us : rng.uniform_int(-1000, horizon_us));
    if (rng.bernoulli(0.1)) {
      t.earliest_start = s.delivery_time + usec(rng.uniform_int(0, 4000));
    }
    if (rng.bernoulli(0.3)) {
      t.affinity = AffinitySet::all(s.num_workers);
    } else {
      t.affinity.add(static_cast<ProcessorId>(
          rng.uniform_int(0, s.num_workers - 1)));
    }
    if (gangs && rng.bernoulli(0.2)) {
      t.workers_required =
          static_cast<std::uint32_t>(rng.uniform_int(2, s.num_workers));
    }
  }
  s.base_loads.resize(s.num_workers);
  for (auto& load : s.base_loads) load = usec(rng.uniform_int(0, 6000));
  // A level charges up to n vertices per worker it tries; a depth-first
  // walk that fits every task charges n (n + 1) / 2 in all.
  s.vertex_budget =
      loose ? std::uint64_t{n} * (n + 1)
            : std::uint64_t(rng.uniform_int(1, 40 * std::int64_t{n}));
  return s;
}

TEST(SearchEquivalenceTest, WideSuccessorGroupsMatchReference) {
  // Successor groups of hundreds, past the 48 where the engine stops
  // insertion-sorting. Sequence-oriented groups without the cost function
  // are generated in key order and are not sorted again; with it they are
  // out of order and must be. Best-first searches switch between subtrees,
  // so entering a vertex can push a chain of several; a vertex entered
  // must be evaluated at its parent's state, not the one the switch
  // started from.
  constexpr std::uint64_t kScenarios = 96;
  std::vector<SearchConfig> configs;
  for (const auto strategy :
       {SearchStrategy::kDepthFirst, SearchStrategy::kBestFirst}) {
    for (const auto order : {TaskOrder::kEarliestDeadline, TaskOrder::kMinSlack,
                             TaskOrder::kBatchOrder}) {
      for (const bool lb : {false, true}) {
        SearchConfig c;
        c.representation = Representation::kSequenceOriented;
        c.strategy = strategy;
        c.task_order = order;
        c.use_load_balance_cost = lb;
        configs.push_back(c);
      }
    }
  }
  SearchConfig least_loaded = configs.front();
  least_loaded.level_processor_order = LevelProcessorOrder::kLeastLoaded;
  configs.push_back(least_loaded);
  configs.push_back(SearchConfig{});  // RT-SADS on the same bursts
  SearchConfig assign_best;
  assign_best.strategy = SearchStrategy::kBestFirst;
  configs.push_back(assign_best);

  Xoshiro256ss rng(0x3A1DE6E5ULL);
  std::uint64_t exhausted = 0, leaves = 0, backtracked = 0;
  std::uint64_t best_first_switches = 0;
  for (std::uint64_t sc = 0; sc < kScenarios; ++sc) {
    const Scenario s = make_wide_scenario(rng, sc % 4 == 1, sc % 4 == 3);
    const auto net =
        sc % 4 == 2 ? machine::Interconnect::mesh(s.num_workers, s.comm)
                    : machine::Interconnect::cut_through(s.num_workers, s.comm);
    for (const SearchConfig& cfg : configs) {
      const SearchResult fast = SearchEngine(cfg).run(
          s.batch, s.base_loads, s.delivery_time, net, s.vertex_budget);
      const SearchResult ref = reference::run(
          cfg, s.batch, s.base_loads, s.delivery_time, net, s.vertex_budget);
      expect_identical(fast, ref, cfg, sc);
      exhausted += fast.stats.budget_exhausted ? 1 : 0;
      leaves += fast.stats.reached_leaf ? 1 : 0;
      backtracked += fast.stats.backtracks > 0 ? 1 : 0;
      if (cfg.strategy == SearchStrategy::kBestFirst) {
        best_first_switches += fast.stats.backtracks;
      }
    }
  }
  // Every ending and path shape happened: budgets that ran out, leaves,
  // backtracking depth-first walks and best-first switches.
  EXPECT_GT(exhausted, 800u);
  EXPECT_GT(leaves, 150u);
  EXPECT_GT(backtracked, 500u);
  EXPECT_GT(best_first_switches, 10000u);
}

}  // namespace
}  // namespace rtds::search
