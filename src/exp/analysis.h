// Post-run analysis of execution logs: lateness distributions and
// per-worker load balance — the quantities behind the paper's qualitative
// statements ("many processors remain idle while others are heavily
// loaded", Sec. 3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "machine/cluster.h"

namespace rtds::exp {

/// Deadline-margin statistics over executed tasks. Margin = deadline - end
/// (positive: finished early; negative: tardy — zero under the theorem).
struct LatenessSummary {
  std::uint64_t executed{0};
  std::uint64_t hits{0};
  std::uint64_t misses{0};
  RunningStats margin_ms;       ///< over all executed tasks
  RunningStats tardiness_ms;    ///< over misses only (positive values)

  [[nodiscard]] std::string to_string() const;
};

LatenessSummary lateness_summary(
    const std::vector<machine::CompletionRecord>& log);

/// Nearest-rank median deadline margin (ms): the ceil(n/2)-th smallest
/// margin of the n executed tasks. Requires a non-empty log.
double median_margin_ms(const std::vector<machine::CompletionRecord>& log);

/// Load-balance metrics over workers at the end of a run.
struct BalanceSummary {
  RunningStats busy_ms;  ///< per-worker busy time
  double imbalance{0.0}; ///< (max - min) / max busy time; 0 = perfect
  std::uint32_t idle_workers{0};  ///< workers that executed nothing
};

/// Reads the cluster's log, which it must keep (CompletionLog::kKeep).
BalanceSummary balance_summary(const machine::Cluster& cluster);

}  // namespace rtds::exp
