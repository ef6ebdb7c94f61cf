// EDF first-fit as a greedy loop: the implementation the `edf_ff` baseline
// had before it became a one-successor SearchEngine configuration, kept
// unchanged as the oracle that configuration is tested against
// (tests/sched/edf_first_fit_test.cc).
//
// One EDF pass over the batch: each task goes to the first processor, in
// index order, that passes the Fig. 4 test; a task no processor takes is
// skipped. Every evaluation charges one vertex of the budget.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "machine/interconnect.h"
#include "search/engine.h"
#include "tasks/task.h"

namespace rtds::search::reference {

/// Same contract as SearchEngine::run. The returned stats count one
/// expansion per placed task and never a dead end.
[[nodiscard]] SearchResult edf_first_fit(
    const std::vector<Task>& batch, const std::vector<SimDuration>& base_loads,
    SimTime delivery_time, const machine::Interconnect& net,
    std::uint64_t vertex_budget);

}  // namespace rtds::search::reference
