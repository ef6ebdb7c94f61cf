// simd::backend_name(): the vector tier the search was built with, as the
// machine fingerprint of every bench output records it. The search has
// none: its one batched Fig. 4 kernel, D-COLS's task-word mask, is a plain
// loop in PartialSchedule::feasible_tasks_mask, so the name is "scalar".
#pragma once

namespace rtds::search::simd {

[[nodiscard]] inline const char* backend_name() { return "scalar"; }

}  // namespace rtds::search::simd
