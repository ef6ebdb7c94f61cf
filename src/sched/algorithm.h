// Per-phase scheduling algorithms.
//
// A PhaseAlgorithm turns a phase's batch into a feasible (partial or
// complete) schedule under a vertex budget — the unit of scheduling cost
// charged against Q_s(j). The pipeline hands it its pending set
// (tasks::Batch), kept in the order pending_order() names; a search reads
// that set in place, every other entrant a vector of its tasks.
// Implementations:
//   * TreeSearchAlgorithm — wraps search::SearchEngine; this is RT-SADS
//     (assignment-oriented) and D-COLS (sequence-oriented) depending on the
//     SearchConfig, and the EDF first-fit baseline, which is the
//     assignment-oriented depth-first search with one successor per level;
//   * GreedyAlgorithm — non-search baselines used to situate the two
//     search schedulers: EDF best-fit and a myopic window scheduler à la
//     Ramamritham-Stankovic ([6] in the paper).
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
#include "tasks/batch.h"
#include "tasks/task.h"

namespace rtds::sched {

using search::SearchResult;
using tasks::Task;

/// Interface for one scheduling phase's decision procedure.
class PhaseAlgorithm {
 public:
  virtual ~PhaseAlgorithm() = default;

  /// Produces a feasible schedule for `batch`; task indices in the result
  /// are indices into `batch`.
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

  /// The order the pipeline keeps its pending set in for this algorithm:
  /// the order its search considers tasks in. kBatchOrder (arrival order)
  /// by default, which is what every entrant that is not a search, and
  /// every decorator that does not forward it, sees.
  [[nodiscard]] virtual tasks::TaskOrder pending_order() const {
    return tasks::TaskOrder::kBatchOrder;
  }

  /// The pipeline's entry: the same schedule for the pending set `batch`,
  /// which the pipeline keeps in pending_order(). Task indices in the
  /// result are positions in the set. The default copies batch.tasks()
  /// into a vector and forwards it to schedule_phase, so an entrant or a
  /// decorator that overrides only the vector entry is run through it
  /// (only the non-search entrants and decorators do, and they copy the
  /// batch on every call already); a search overrides this to read the set
  /// in place, and its answer must equal the vector entry's over
  /// batch.tasks() (the fast-forward-parity fuzz oracle compares the two).
  [[nodiscard]] virtual SearchResult schedule_pending(
      const tasks::Batch& batch, const std::vector<SimDuration>& base_loads,
      SimTime delivery_time, const machine::Interconnect& net,
      std::uint64_t vertex_budget) const {
    const std::vector<Task> tasks(batch.tasks().begin(), batch.tasks().end());
    return schedule_phase(tasks, base_loads, delivery_time, net,
                          vertex_budget);
  }

  /// True when an empty answer that did not exhaust its budget stays empty,
  /// with equal SearchStats, over the same batch and interconnect at any
  /// later delivery time, with no worker free earlier (delivery_time +
  /// base_loads[k] no smaller for any k) and a budget of at least the
  /// recorded vertices_generated. The pipeline then computes the phases
  /// that would repeat such an answer instead of calling schedule_phase
  /// (docs/ARCHITECTURE.md, "Futile runs are fast-forwarded"). False by
  /// default: a decorator that does not forward it keeps its runs on the
  /// phase-by-phase loop.
  [[nodiscard]] virtual bool futile_answer_persists() const { return false; }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Tree-search scheduler (RT-SADS / D-COLS / EDF first-fit, per the
/// SearchConfig).
class TreeSearchAlgorithm final : public PhaseAlgorithm {
 public:
  TreeSearchAlgorithm(std::string name, search::SearchConfig config);

  /// The vector adapter: SearchEngine::run over `batch`.
  [[nodiscard]] SearchResult schedule_phase(
      const std::vector<Task>& batch,
      const std::vector<SimDuration>& base_loads, SimTime delivery_time,
      const machine::Interconnect& net,
      std::uint64_t vertex_budget) const override;
  /// The search's task order.
  [[nodiscard]] tasks::TaskOrder pending_order() const override {
    return engine_.config().task_order;
  }
  /// The search over the set in place: SearchEngine::run over `batch`,
  /// which must be kept in pending_order() (InvalidArgument otherwise; a
  /// decorator forwards both or neither).
  [[nodiscard]] SearchResult schedule_pending(
      const tasks::Batch& batch, const std::vector<SimDuration>& base_loads,
      SimTime delivery_time, const machine::Interconnect& net,
      std::uint64_t vertex_budget) const override;
  /// Every config but sequence-oriented + least-loaded + no skipping.
  [[nodiscard]] bool futile_answer_persists() const override;
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
  kEdfBestFit,   ///< EDF task order; feasible processor with earliest finish
  kMyopic,       ///< among the W earliest-deadline pending tasks, pick the
                 ///< (task, processor) pair with the earliest finish
};

class GreedyAlgorithm final : public PhaseAlgorithm {
 public:
  /// `window` is the myopic feasibility-window size W (ignored by EDF
  /// best-fit). The registry passes the canonical spec as `name`, so
  /// name() round-trips.
  GreedyAlgorithm(std::string name, GreedyKind kind, std::uint32_t window = 5);

  [[nodiscard]] SearchResult schedule_phase(
      const std::vector<Task>& batch,
      const std::vector<SimDuration>& base_loads, SimTime delivery_time,
      const machine::Interconnect& net,
      std::uint64_t vertex_budget) const override;
  /// True for both kinds (tests/sched/fast_forward_test.cc).
  [[nodiscard]] bool futile_answer_persists() const override { return true; }
  [[nodiscard]] std::string name() const override { return name_; }

 private:
  std::string name_;
  GreedyKind kind_;
  std::uint32_t window_;
};

}  // namespace rtds::sched
