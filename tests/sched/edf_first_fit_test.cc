// The `edf_ff` baseline is the assignment-oriented depth-first search with
// one successor per level: EDF task order, processors in index order, no
// cost function, max_successors = 1. This suite pins that equivalence
// against the greedy first-fit loop the baseline used to be
// (tests/support/first_fit_reference.h): on random phase inputs the
// registry's `edf_ff` must place the same tasks on the same workers at the
// same offsets, charge the same vertices, and never backtrack.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "machine/interconnect.h"
#include "sched/registry.h"
#include "support/first_fit_reference.h"

namespace rtds::sched {
namespace {

using search::Assignment;
using search::SearchResult;
using tasks::AffinitySet;
using tasks::ProcessorId;

struct PhaseInput {
  std::vector<Task> batch;
  std::vector<SimDuration> base_loads;
  SimTime delivery_time{SimTime::zero()};
  machine::Interconnect net = machine::Interconnect::cut_through(1, usec(0));
  std::uint64_t vertex_budget{1};
};

/// m in [1, 11], 1-60 tasks with deadlines across the feasible/hopeless
/// boundary, start-time constraints, random data holders and base loads,
/// 20% gangs (some wider than the machine), 30% mesh routing, and budgets
/// from 1 to 200 vertices or unlimited.
PhaseInput make_input(Xoshiro256ss& rng) {
  PhaseInput in;
  const auto m = static_cast<std::uint32_t>(rng.uniform_int(1, 11));
  const SimDuration comm = usec(rng.uniform_int(0, 8000));
  in.net = rng.bernoulli(0.3) ? machine::Interconnect::mesh(m, comm)
                              : machine::Interconnect::cut_through(m, comm);
  in.delivery_time = SimTime::zero() + usec(rng.uniform_int(0, 20000));

  const auto n = static_cast<std::uint32_t>(rng.uniform_int(1, 60));
  in.batch.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Task& t = in.batch[i];
    t.id = i;
    t.processing = usec(rng.uniform_int(100, 10000));
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

  in.base_loads.resize(m);
  for (auto& load : in.base_loads) {
    load = rng.bernoulli(0.5) ? SimDuration::zero()
                              : usec(rng.uniform_int(0, 15000));
  }
  in.vertex_budget = rng.bernoulli(0.2)
                         ? std::numeric_limits<std::uint64_t>::max()
                         : std::uint64_t(rng.uniform_int(1, 200));
  return in;
}

TEST(EdfFirstFitTest, RegistrySearchMatchesTheGreedyLoop) {
  constexpr std::uint64_t kInputs = 20000;
  const auto edf_ff = AlgorithmRegistry::builtin().make("edf_ff");
  Xoshiro256ss rng(0xEDFF1257ULL);
  std::uint64_t exhausted = 0, leaves = 0, skipped = 0, gangs_placed = 0;
  for (std::uint64_t i = 0; i < kInputs; ++i) {
    const PhaseInput in = make_input(rng);
    const SearchResult fast =
        edf_ff->schedule_phase(in.batch, in.base_loads, in.delivery_time,
                               in.net, in.vertex_budget);
    const SearchResult ref = search::reference::edf_first_fit(
        in.batch, in.base_loads, in.delivery_time, in.net, in.vertex_budget);
    const std::string where = "input " + std::to_string(i);
    ASSERT_EQ(fast.schedule.size(), ref.schedule.size()) << where;
    for (std::size_t d = 0; d < fast.schedule.size(); ++d) {
      const Assignment& a = fast.schedule[d];
      const Assignment& b = ref.schedule[d];
      ASSERT_EQ(a.task_index, b.task_index) << where << " depth " << d;
      ASSERT_EQ(a.worker, b.worker) << where << " depth " << d;
      ASSERT_EQ(a.end_offset, b.end_offset) << where << " depth " << d;
      gangs_placed += in.batch[a.task_index].workers_required > 1 ? 1 : 0;
    }
    ASSERT_EQ(fast.stats.vertices_generated, ref.stats.vertices_generated)
        << where;
    ASSERT_EQ(fast.stats.backtracks, 0u) << where;
    ASSERT_EQ(fast.stats.reached_leaf, ref.stats.reached_leaf) << where;
    // The counters that differ by definition: the search also counts the
    // final expansion that finds no successor (and calls it a dead end),
    // and it reports the budget exhausted whenever the budget hits zero
    // with tasks unassigned, even when the loop's one pass had no task
    // left to look at.
    ASSERT_EQ(fast.stats.expansions,
              ref.stats.expansions + (fast.stats.dead_end ? 1 : 0))
        << where;
    ASSERT_FALSE(ref.stats.dead_end) << where;
    if (ref.stats.budget_exhausted) {
      ASSERT_TRUE(fast.stats.budget_exhausted) << where;
    }
    exhausted += ref.stats.budget_exhausted ? 1 : 0;
    leaves += ref.stats.reached_leaf ? 1 : 0;
    skipped += !ref.stats.reached_leaf && !ref.stats.budget_exhausted ? 1 : 0;
  }
  // Every ending was exercised: budgets that ran out, batches placed whole,
  // and passes that left unplaceable tasks behind; and gangs were placed.
  EXPECT_GT(exhausted, 3000u);
  EXPECT_GT(leaves, 500u);
  EXPECT_GT(skipped, 6000u);
  EXPECT_GT(gangs_placed, 10000u);
}

}  // namespace
}  // namespace rtds::sched
