// Per-phase scheduling algorithms.
//
// A PhaseAlgorithm turns a batch snapshot into a feasible (partial or
// complete) schedule under a vertex budget — the unit of scheduling cost
// charged against Q_s(j). Implementations:
//   * TreeSearchAlgorithm — wraps search::SearchEngine; this is RT-SADS
//     (assignment-oriented) and D-COLS (sequence-oriented) depending on the
//     SearchConfig;
//   * GreedyAlgorithm — non-search baselines used to situate the two
//     search schedulers: EDF first-fit, EDF best-fit, and a myopic
//     window scheduler à la Ramamritham-Stankovic ([6] in the paper).
// All algorithms apply the SAME predictive feasibility test (Fig. 4), so
// the correction theorem (scheduled tasks never miss deadlines) holds for
// every baseline.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/time.h"
#include "machine/interconnect.h"
#include "search/engine.h"
#include "tasks/task.h"

namespace rtds::sched {

using search::SearchResult;
using tasks::Task;

/// Interface for one scheduling phase's decision procedure.
class PhaseAlgorithm {
 public:
  virtual ~PhaseAlgorithm() = default;

  /// Produces a feasible schedule for `batch`.
  ///
  /// `base_loads[k]` — residual worker load at delivery time (borrowed for
  ///                   the duration of the call; implementations snapshot
  ///                   what they need, so backends reuse one buffer across
  ///                   phases instead of copying per phase);
  /// `delivery_time` — when the schedule will reach the ready queues
  ///                   (t_s + Q_s);
  /// `vertex_budget` — maximum candidate evaluations allowed.
  [[nodiscard]] virtual SearchResult schedule_phase(
      const std::vector<Task>& batch,
      const std::vector<SimDuration>& base_loads, SimTime delivery_time,
      const machine::Interconnect& net,
      std::uint64_t vertex_budget) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Tree-search scheduler (RT-SADS / D-COLS, per the SearchConfig).
class TreeSearchAlgorithm final : public PhaseAlgorithm {
 public:
  TreeSearchAlgorithm(std::string name, search::SearchConfig config);

  [[nodiscard]] SearchResult schedule_phase(
      const std::vector<Task>& batch,
      const std::vector<SimDuration>& base_loads, SimTime delivery_time,
      const machine::Interconnect& net,
      std::uint64_t vertex_budget) const override;
  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] const search::SearchConfig& search_config() const {
    return engine_.config();
  }

 private:
  std::string name_;
  search::SearchEngine engine_;
};

/// Non-search greedy baselines.
enum class GreedyKind {
  kEdfFirstFit,  ///< EDF task order; first feasible processor in index order
  kEdfBestFit,   ///< EDF task order; feasible processor with earliest finish
  kMyopic,       ///< among the W earliest-deadline pending tasks, pick the
                 ///< (task, processor) pair with the earliest finish
};

class GreedyAlgorithm final : public PhaseAlgorithm {
 public:
  /// `window` is the myopic feasibility-window size W (ignored by the EDF
  /// variants). The registry passes the canonical spec as `name`, so
  /// name() round-trips.
  GreedyAlgorithm(std::string name, GreedyKind kind, std::uint32_t window = 5);

  [[nodiscard]] SearchResult schedule_phase(
      const std::vector<Task>& batch,
      const std::vector<SimDuration>& base_loads, SimTime delivery_time,
      const machine::Interconnect& net,
      std::uint64_t vertex_budget) const override;
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
  GreedyKind kind_;
  std::uint32_t window_;
};

}  // namespace rtds::sched
