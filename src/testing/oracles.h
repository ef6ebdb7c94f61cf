// Invariant oracles for the stress/fuzz harness.
//
// Each oracle re-derives one guarantee of the system from observable run
// state and appends a human-readable violation line on any breach. They are
// deliberately independent of the code that produced the state (the
// machine::Validator re-prices every execution record from first
// principles; the conservation oracle re-balances the ledger against the
// aggregate metrics) so a bookkeeping bug cannot validate itself.
//
// Registry (see docs/FUZZING.md):
//   correction-theorem  exec_misses == 0 on the simulated runs — a committed
//                       task never misses during execution (Sec. 4.3)
//   conservation        total == hits + exec_misses + culled + rejected,
//                       ledger terminal states, the transition-event
//                       cross-checks (schedule = deliver + drop + reject),
//                       an empty ledger after drain, and on open simulated
//                       runs a ledger high-water within max_pending plus
//                       the largest single-phase delivery
//   schedule-validity   machine::Validator over the full execution log
//   quantum-bound       Q_s(j) == clamp(max(Min_Slack, Min_Load)) per phase
//                       unless the progress floor bound it — and the
//                       quantum_floor_overrides counter matches exactly
//   threaded-parity     scheduled/culled/hit agreement between the DES and
//                       the threaded backend on parity-class scenarios
//   stream-accounting   streaming runs: one schedule-latency sample per
//                       accepted delivery (histogram count == scheduled)
//   gang-occupancy      gang jobs occupy exactly their contiguous worker
//                       block, are never split, and no instant commits
//                       more worker-slots than the machine has
//   fast-forward-parity the simulated run, which fast-forwards futile runs,
//                       equals the same scenario run phase by phase:
//                       RunMetrics, latency histogram, ledger counts and
//                       high-water, and every PhaseRecord but its host time
//
// oracle_metric_parity is not in the registry: the replay-determinism tests
// apply it to two runs of the same scenario.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "machine/cluster.h"
#include "machine/validator.h"
#include "sched/ledger.h"
#include "sched/pipeline.h"
#include "sched/trace.h"
#include "testing/scenario.h"

namespace rtds::testing {

/// Everything one backend run exposes to the oracles.
struct BackendRun {
  std::string name;  ///< "sim", "shard[2]", "threaded"
  sched::RunMetrics metrics;
  sched::LedgerCounts ledger;
  std::vector<sched::PhaseRecord> phases;
  bool has_ledger{false};
  bool has_phases{false};
  /// Ledger entries left after drain (terminal tasks leave the ledger, so
  /// a conserved run leaves none) and the most it held at any phase end.
  std::size_t ledger_size{0};
  std::size_t ledger_high_water{0};
  /// Admission bound of an open run whose backend reports every delivered
  /// task's outcome at its next clock call (the simulated one); 0 when the
  /// high-water is unchecked. The bound is max_pending plus the largest
  /// single-phase delivery.
  std::size_t max_pending{0};

  /// Schedule-latency histogram of a streaming run (open scenarios only),
  /// so two DES runs can be compared whole and its count cross-checked
  /// against the delivery count.
  std::optional<Histogram> latency;
};

/// The names above, in evaluation order (for the driver's summary).
const std::vector<std::string>& oracle_names();

/// exec_misses == 0: the correction theorem, on backends with a virtual
/// clock (the threaded backend is judged against wall-clock jitter and is
/// exempt — see docs/FUZZING.md).
void oracle_correction_theorem(const BackendRun& run,
                               std::vector<std::string>& out);

/// Task conservation + ledger/metrics agreement + transition-event
/// cross-checks + O(in-flight) ledger size.
void oracle_conservation(const BackendRun& run,
                         std::vector<std::string>& out);

/// machine::Validator over the cluster's execution log.
void oracle_schedule_validity(const std::string& name,
                              const machine::Cluster& cluster,
                              const std::vector<tasks::Task>& workload,
                              std::vector<std::string>& out);

/// Per-phase Q_s audit against the scenario's quantum policy, plus exact
/// agreement of the floor-override counter.
void oracle_quantum_bound(const Scenario& scenario, const BackendRun& run,
                          std::vector<std::string>& out);

/// Field-for-field RunMetrics and latency-histogram equality between two
/// simulated runs (a replay must reproduce its original exactly).
void oracle_metric_parity(const BackendRun& a, const BackendRun& b,
                          std::vector<std::string>& out);

/// `run` (the pipeline free to fast-forward futile runs) against
/// `reference` (the same scenario through PhaseByPhaseBackend): every
/// RunMetrics field, the latency histograms, the ledger counts and
/// high-water, and every PhaseRecord field except search_wall_ns.
void oracle_fast_forward_parity(const BackendRun& run,
                                const BackendRun& reference,
                                std::vector<std::string>& out);

/// scheduled / culled / deadline_hits agreement for parity-class scenarios.
void oracle_threaded_parity(const BackendRun& sim, const BackendRun& threaded,
                            std::vector<std::string>& out);

/// Streaming bookkeeping: every accepted delivery contributed exactly one
/// schedule-latency sample (histogram count == RunMetrics::scheduled), on
/// any backend. No-op for runs without a latency histogram.
void oracle_stream_accounting(const BackendRun& run,
                              std::vector<std::string>& out);

/// Gang/moldable occupancy, re-derived from the execution log alone: each
/// record's block [worker, worker+width) must fit the machine with the
/// width the workload declares (a gang is never split); per-worker
/// intervals must not overlap once blocks are expanded; and a sweep over
/// start/end events must never find more than num_workers occupied
/// worker-slots at any instant.
void oracle_gang_occupancy(const std::string& name,
                           const machine::Cluster& cluster,
                           const std::vector<tasks::Task>& workload,
                           std::vector<std::string>& out);

}  // namespace rtds::testing
