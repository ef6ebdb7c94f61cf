#include "support/first_fit_reference.h"

#include <optional>

#include "search/partial_schedule.h"

namespace rtds::search::reference {

SearchResult edf_first_fit(const std::vector<Task>& batch,
                           const std::vector<SimDuration>& base_loads,
                           SimTime delivery_time,
                           const machine::Interconnect& net,
                           std::uint64_t vertex_budget) {
  SearchResult result;
  if (batch.empty() || vertex_budget == 0) return result;

  const std::uint32_t m = net.num_workers();
  const tasks::Batch set(batch);
  PartialSchedule ps(&set, base_loads, delivery_time, &net);
  const std::vector<std::uint32_t> order =
      task_consideration_order(batch, TaskOrder::kEarliestDeadline);

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

  // One EDF pass; infeasible tasks are skipped rather than ending the
  // phase (greedy baselines have no notion of a dead-end).
  for (std::uint32_t i : order) {
    if (stats.budget_exhausted) break;
    std::optional<Assignment> best;
    for (std::uint32_t k = 0; k < m; ++k) {
      if (!charge()) break;
      if (auto a = ps.evaluate(i, k)) {
        best = *a;
        break;
      }
    }
    if (best) {
      ps.push(*best);
      ++stats.expansions;
    }
  }

  stats.max_depth = ps.depth();
  stats.reached_leaf = ps.complete();
  result.schedule = ps.path();
  return result;
}

}  // namespace rtds::search::reference
