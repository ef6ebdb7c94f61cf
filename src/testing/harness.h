// Cross-backend differential fuzz harness.
//
// run_scenario() drives ONE Scenario through both ExecutionBackend
// deployments of the phase pipeline and evaluates the oracle registry
// (testing/oracles.h) over everything observable:
//
//   sim       SimBackend (simulated clock) — ledger + phase trace +
//             execution-log validation; fault injection via
//             FaultInjectingBackend. The pipeline fast-forwards its futile
//             runs and searches its pending set in place, so the scenario
//             runs a second time through PhaseByPhaseBackend with the
//             algorithm behind VectorEntryAlgorithm
//             (testing/phase_by_phase.h) — every phase searched, through
//             the vector entry — and the two runs must be equal
//             (fast-forward-parity)
//   shards    when the scenario has shards > 1, run_partitioned() over the
//             same workload — per-shard correction theorem + cross-shard
//             conservation
//   threaded  runtime::ThreadedBackend — real threads, wall clock;
//             conservation always, count parity on parity-class scenarios
//             (deadlines far beyond wall-clock jitter)
//
// Open scenarios (Scenario::open_arrival != 0) drive every backend through
// PhasePipeline::run_stream instead: each run pulls the identical
// deterministic task stream from its own ArrivalSource, admission control
// applies scenario.max_pending, and the schedule-latency histogram is
// checked by the stream-accounting oracle.
//
// Any InvariantViolation thrown inside the library (the pipeline's own
// asserts, the ledger's transition checks) is caught and reported as a
// violation of that backend's run rather than aborting the sweep, so the
// shrinker can minimize crashing scenarios too.
//
// HarnessOptions::mutation deliberately corrupts the observed state AFTER a
// run — it exists so the test suite can prove the oracles actually fire and
// the shrinker actually minimizes (a fuzzer whose failure path is never
// exercised is worse than none).
#pragma once

#include <string>
#include <vector>

#include "testing/oracles.h"
#include "testing/scenario.h"

namespace rtds::testing {

/// Self-test fault injection: corrupts observed run state before the
/// oracles see it, simulating the bug class each oracle exists to catch.
enum class Mutation {
  kNone,
  /// Silently lose one deadline hit from the sim run's books — the PR-1
  /// mailbox-overflow bug class. Caught by the conservation oracle.
  kLoseHit,
  /// Inflate one phase's recorded Q_s — caught by the quantum-bound oracle.
  kCorruptQuantum,
  /// Hand the gang-occupancy oracle a doctored workload whose executed gang
  /// tasks declare one worker more than they were given — the split-gang
  /// bug class. Fires ONLY when a gang actually executed, which is what
  /// makes it the seed for the shrinker's gang-preservation test: a shrink
  /// candidate that drops the gang dial also drops the failure, so the
  /// minimal scenario must keep a gang.
  kCorruptGangWidth,
  /// Drop the sim run's last phase from its books, record and count, as a
  /// fast-forward that stops one phase short without charging it would.
  /// Caught by the fast-forward-parity oracle.
  kLosePhase,
  /// Run the sim run's algorithm behind a decorator whose in-place entry
  /// (schedule_pending) drops the last assignment of every non-empty
  /// schedule while its vector entry answers unchanged: an in-place search
  /// that disagrees with its vector adapter. Caught by the
  /// fast-forward-parity oracle, whose reference takes the vector entry.
  kSplitEntries,
};

struct HarnessOptions {
  bool run_threaded{true};
  /// Wall-clock compression for the threaded backend (execution sleeps are
  /// scaled by this; the DES figures are unaffected).
  double threaded_time_scale{0.02};
  Mutation mutation{Mutation::kNone};
};

/// How the fast-forwarded runs of a sim run ended, each classified by the
/// phase that followed its last skipped phase (the first one searched
/// again), in this order of precedence.
struct FastForwardStops {
  std::uint64_t arrival{0};  ///< it merged an arrival or turned one away
  std::uint64_t cull{0};     ///< it culled a task
  /// Its vertex budget was below the skipped searches' vertices.
  std::uint64_t budget{0};
  /// Anything else — an earliest start passed, an earlier delivery — or no
  /// phase followed.
  std::uint64_t other{0};

  [[nodiscard]] std::uint64_t runs() const {
    return arrival + cull + budget + other;
  }
  FastForwardStops& operator+=(const FastForwardStops& o) {
    arrival += o.arrival;
    cull += o.cull;
    budget += o.budget;
    other += o.other;
    return *this;
  }
};

/// Outcome of one scenario across all backends.
struct ScenarioResult {
  Scenario scenario;
  std::string token;  ///< replay token (encode_token(scenario))
  std::vector<std::string> violations;

  BackendRun sim;
  /// The sim run again, phase by phase: the fast-forward's reference.
  BackendRun sim_reference;
  /// Phases of the sim run the pipeline fast-forwarded: its phases minus
  /// its algorithm calls.
  std::uint64_t fast_forwarded_phases{0};
  /// The sim run's fast-forwarded runs, by the phase that ended each.
  FastForwardStops fast_forward_stops;
  BackendRun threaded;
  std::vector<BackendRun> shard_runs;  ///< multi-shard audit (shards > 1)
  bool threaded_ran{false};

  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::string to_string() const;
};

ScenarioResult run_scenario(const Scenario& scenario,
                            const HarnessOptions& options = {});

}  // namespace rtds::testing
