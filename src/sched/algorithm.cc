#include "sched/algorithm.h"

#include <algorithm>

#include "common/error.h"
#include "search/partial_schedule.h"

namespace rtds::sched {

using search::Assignment;
using search::PartialSchedule;

TreeSearchAlgorithm::TreeSearchAlgorithm(std::string name,
                                         search::SearchConfig config)
    : name_(std::move(name)), engine_(config) {}

SearchResult TreeSearchAlgorithm::schedule_phase(
    const std::vector<Task>& batch,
    const std::vector<SimDuration>& base_loads, SimTime delivery_time,
    const machine::Interconnect& net, std::uint64_t vertex_budget) const {
  return engine_.run(batch, base_loads, delivery_time, net, vertex_budget);
}

SearchResult TreeSearchAlgorithm::schedule_pending(
    const tasks::Batch& batch, const std::vector<SimDuration>& base_loads,
    SimTime delivery_time, const machine::Interconnect& net,
    std::uint64_t vertex_budget) const {
  return engine_.run(batch, base_loads, delivery_time, net, vertex_budget);
}

bool TreeSearchAlgorithm::futile_answer_persists() const {
  // An empty, unexhausted search evaluated every root candidate and found
  // none feasible. Fig. 4 accepts T_l on P_k iff max(A_k, e_l) + p_l + c_lk
  // <= d_l with A_k = delivery_time + base_loads[k], monotone in every A_k,
  // so with no A_k earlier those candidates stay infeasible and are charged
  // alike. The root candidates are fixed by the batch and the config for
  // every configuration but one: a sequence-oriented search that tries
  // only its level's first processor, picked least-loaded, lets the loads
  // choose the worker, so a later root could try a worker the empty search
  // never evaluated.
  const search::SearchConfig& c = engine_.config();
  return c.representation == search::Representation::kAssignmentOriented ||
         c.skip_saturated_processors ||
         c.level_processor_order == search::LevelProcessorOrder::kRoundRobin;
}

GreedyAlgorithm::GreedyAlgorithm(std::string name, GreedyKind kind,
                                 std::uint32_t window)
    : name_(std::move(name)), kind_(kind), window_(window) {
  RTDS_REQUIRE(window_ >= 1, "GreedyAlgorithm: window must be >= 1");
}

// An empty answer evaluated each task it considered on every worker at the
// root and found none feasible: a feasible one would have been pushed.
// EDF best-fit considers every task; myopic considers its window of the W
// earliest deadlines and stops. The EDF order does not depend on the
// delivery time, and Fig. 4 is monotone in every A_k, so at a root with no
// A_k earlier the same evaluations fail in the same order and are charged
// alike: futile_answer_persists() holds.
SearchResult GreedyAlgorithm::schedule_phase(
    const std::vector<Task>& batch,
    const std::vector<SimDuration>& base_loads, SimTime delivery_time,
    const machine::Interconnect& net, std::uint64_t vertex_budget) const {
  SearchResult result;
  if (batch.empty() || vertex_budget == 0) return result;

  const std::uint32_t m = net.num_workers();
  const tasks::Batch set(batch);
  PartialSchedule ps(&set, base_loads, delivery_time, &net);
  const std::vector<std::uint32_t> order = search::task_consideration_order(
      batch, search::TaskOrder::kEarliestDeadline);

  std::uint64_t budget_left = vertex_budget;
  auto& stats = result.stats;

  const auto charge = [&]() -> bool {
    if (budget_left == 0) {
      stats.budget_exhausted = true;
      return false;
    }
    --budget_left;
    ++stats.vertices_generated;
    return true;
  };

  if (kind_ == GreedyKind::kMyopic) {
    // Repeatedly: look at the W unassigned tasks with the earliest
    // deadlines, evaluate each on every processor, commit the pair with the
    // earliest finish. Tasks with no feasible placement are skipped (and
    // retried while they remain in the window).
    std::vector<bool> hopeless(batch.size(), false);
    while (!ps.complete() && !stats.budget_exhausted) {
      std::optional<Assignment> best;
      std::uint32_t inspected = 0;
      for (std::uint32_t i : order) {
        if (ps.assigned(i) || hopeless[i]) continue;
        if (inspected == window_) break;
        ++inspected;
        bool any = false;
        for (std::uint32_t k = 0; k < m && charge(); ++k) {
          if (auto a = ps.evaluate(i, k)) {
            any = true;
            if (!best || a->end_offset < best->end_offset) best = *a;
          }
        }
        if (!any && !stats.budget_exhausted) hopeless[i] = true;
        if (stats.budget_exhausted) break;
      }
      if (!best) break;  // nothing in the window fits
      ps.push(*best);
      ++stats.expansions;
    }
  } else {
    // One EDF pass; infeasible tasks are skipped rather than ending the
    // phase (greedy baselines have no notion of a dead-end).
    for (std::uint32_t i : order) {
      if (stats.budget_exhausted) break;
      std::optional<Assignment> best;
      for (std::uint32_t k = 0; k < m; ++k) {
        if (!charge()) break;
        if (auto a = ps.evaluate(i, k)) {
          if (!best || a->end_offset < best->end_offset) best = *a;
        }
      }
      if (best) {
        ps.push(*best);
        ++stats.expansions;
      }
    }
  }

  stats.max_depth = ps.depth();
  stats.reached_leaf = ps.complete();
  result.schedule = ps.path();
  return result;
}

}  // namespace rtds::sched
