// Phase-level observability for the scheduling pipeline.
//
// A PhaseObserver receives one PhaseRecord per scheduling phase: the batch
// state, the Fig. 3 quantum inputs and allocation, the vertex budget, the
// search statistics and the outcome. PhaseTraceRecorder keeps them all and
// can render a CSV trace; it is how the examples and the EXPERIMENTS
// notebook look inside a run without recompiling the driver.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/time.h"
#include "search/engine.h"

namespace rtds::sched {

/// Everything that happened in one scheduling phase.
struct PhaseRecord {
  /// Canonical spec of the algorithm that ran this phase (constant across a
  /// run; repeated per record so a trace file is self-describing even when
  /// traces from several runs are concatenated).
  std::string algorithm;

  std::uint64_t index{0};
  SimTime start{SimTime::zero()};
  SimTime end{SimTime::zero()};

  std::uint64_t batch_size{0};  ///< after merge + cull, before scheduling
  std::uint64_t arrivals{0};    ///< tasks merged at this phase start
  std::uint64_t culled{0};      ///< tasks dropped as unreachable
  /// Arrivals turned away by open-system admission control at this phase
  /// start (always 0 in closed runs; excluded from `arrivals`).
  std::uint64_t admission_rejected{0};

  SimDuration min_slack{SimDuration::zero()};  ///< Min_Slack (Fig. 3)
  SimDuration min_load{SimDuration::zero()};   ///< Min_Load (Fig. 3)
  SimDuration quantum{SimDuration::zero()};    ///< Q_s(j), after clamping
  std::uint64_t vertex_budget{0};
  /// The progress floor (phase_overhead + vertex_cost) raised Q_s above the
  /// policy allocation, possibly past the Fig. 3 bound.
  bool quantum_floor_override{false};

  search::SearchStats search;
  /// Host wall-clock nanoseconds the phase spent inside the search (real
  /// time, not simulated — nondeterministic across runs).
  std::uint64_t search_wall_ns{0};
  std::uint64_t scheduled{0};   ///< assignments produced by the search
  std::uint64_t delivered{0};   ///< assignments accepted by the backend
  std::uint64_t overflow_drops{0};  ///< delivery refusals this phase
  std::uint64_t readmitted{0};  ///< refused tasks returned to the batch
  std::uint64_t rejected{0};    ///< refused tasks retired (attempts spent)
};

/// Callback interface; implementations must not throw.
class PhaseObserver {
 public:
  virtual ~PhaseObserver() = default;
  virtual void on_phase(const PhaseRecord& record) = 0;
};

/// Accumulating observer with CSV export.
class PhaseTraceRecorder final : public PhaseObserver {
 public:
  void on_phase(const PhaseRecord& record) override;

  [[nodiscard]] const std::vector<PhaseRecord>& records() const {
    return records_;
  }
  [[nodiscard]] bool empty() const { return records_.empty(); }
  void clear() { records_.clear(); }

  /// One CSV row per phase (header included).
  void write_csv(std::ostream& os) const;

 private:
  std::vector<PhaseRecord> records_;
};

}  // namespace rtds::sched
