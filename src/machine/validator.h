// Independent validation oracle for executed schedules.
//
// Re-derives, from first principles, everything the Cluster's execution log
// claims: single execution per task, non-preemption, per-worker serial
// order, correct communication pricing, correct demand (worst-case or
// reclaimed), arrival/delivery causality, and deadline outcomes. The test
// suite runs it after end-to-end scheduling runs so that an accounting bug
// in Cluster cannot silently validate itself.
#pragma once

#include <string>
#include <vector>

#include "machine/cluster.h"

namespace rtds::machine {

struct ValidationReport {
  std::vector<std::string> violations;
  std::uint64_t records_checked{0};

  [[nodiscard]] bool ok() const { return violations.empty(); }

  /// All violations joined with newlines (for test failure messages).
  [[nodiscard]] std::string to_string() const;
};

/// Validates `cluster`'s execution log against the task definitions in
/// `workload` (the source of truth for arrival, demand, affinity and
/// deadline). Tasks in the workload that never executed are fine (culled
/// or unscheduled); log entries without a workload task are violations.
/// The cluster must keep its log (CompletionLog::kKeep).
ValidationReport validate_execution(const Cluster& cluster,
                                    const std::vector<tasks::Task>& workload);

}  // namespace rtds::machine
