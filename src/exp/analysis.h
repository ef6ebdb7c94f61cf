// Post-run analysis of execution logs: lateness distributions and
// per-worker load balance — the quantities behind the paper's qualitative
// statements ("many processors remain idle while others are heavily
// loaded", Sec. 3).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/stats.h"
#include "machine/cluster.h"
#include "sched/ledger.h"
#include "sched/pipeline.h"

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

/// Histogram of deadline margins (ms) with symmetric bounds around zero.
Histogram margin_histogram(
    const std::vector<machine::CompletionRecord>& log, double half_range_ms,
    std::size_t buckets = 20);

/// Load-balance metrics over workers at the end of a run.
struct BalanceSummary {
  RunningStats busy_ms;  ///< per-worker busy time
  double imbalance{0.0}; ///< (max - min) / max busy time; 0 = perfect
  std::uint32_t idle_workers{0};  ///< workers that executed nothing
};

/// Reads the cluster's log, which it must keep (CompletionLog::kKeep).
BalanceSummary balance_summary(const machine::Cluster& cluster);

/// Task-conservation audit of one finished run: every offered task must sit
/// in exactly one terminal state (hit, exec miss, culled, rejected,
/// admission-rejected). An `unaccounted` count != 0 is the overload-loss
/// bug this layer exists to rule out — it means tasks vanished without an
/// outcome.
struct ConservationReport {
  std::uint64_t total{0};
  std::uint64_t deadline_hits{0};
  std::uint64_t exec_misses{0};
  std::uint64_t culled{0};
  std::uint64_t rejected{0};
  std::uint64_t admission_rejected{0};  ///< open-system runs only
  std::uint64_t unaccounted{0};

  [[nodiscard]] bool conserved() const { return unaccounted == 0; }
  [[nodiscard]] std::string to_string() const;
};

/// Audit from the per-task ledger of a run.
ConservationReport conservation_report(const sched::TaskLedger& ledger);

/// Audit from aggregate metrics (when no ledger was kept by the caller).
ConservationReport conservation_report(const sched::RunMetrics& metrics);

}  // namespace rtds::exp
