// Exports a cluster's execution log for offline inspection/plotting. Both
// writers read the log, so the cluster must keep one (CompletionLog::kKeep).
#pragma once

#include <iosfwd>

#include "machine/cluster.h"

namespace rtds::machine {

/// Writes one CSV row per executed task: worker, timing, deadline outcome.
/// Rows are in delivery order (the order the cluster recorded them), which
/// is also per-worker execution order. Suitable for building Gantt charts.
void write_completion_csv(const Cluster& cluster, std::ostream& os);

/// Per-worker utilization summary over [0, horizon]: busy time, share of
/// the horizon, and tasks executed. Plain text.
void write_utilization_summary(const Cluster& cluster, SimTime horizon,
                               std::ostream& os);

}  // namespace rtds::machine
