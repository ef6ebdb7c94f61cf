// Batch maintenance (Sec. 4): the pipeline's one pending set.
//
// The input to each scheduling phase j is Batch(j). At the end of phase j,
// Batch(j+1) is formed by removing from Batch(j) the tasks that were
// scheduled and the tasks whose deadlines were missed, and by adding the
// tasks that arrived during phase j. Scheduled tasks never re-enter a later
// batch (they are delivered to worker ready queues instead).
//
// The set is kept in the order the phase's search considers its tasks in:
// each pending task is held once, with its arrival number beside it, and
// every operation keeps the order current, so a phase reads its root in
// place: nothing is sorted or copied per search, and the search and the
// phase loop read each field from the task (docs/ARCHITECTURE.md, "The
// pending set").
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time.h"
#include "tasks/task.h"

namespace rtds::tasks {

/// Order in which a search considers the tasks of a batch (the
/// task-selection heuristic), and so the order a pending set keeps.
enum class TaskOrder {
  kBatchOrder,        ///< arrival/merge order, no heuristic
  kEarliestDeadline,  ///< EDF — the classic real-time heuristic
  kMinSlack,          ///< least-laxity (d - p)
};

/// The sort key of `task` under `order`: its deadline (EDF) or d - p
/// (min-slack; slack d - t - p ranks tasks alike at every t), in
/// microseconds, and 0 for kBatchOrder, where only arrival order counts.
[[nodiscard]] std::int64_t consideration_key(const Task& task, TaskOrder order);

/// Mutable pending set between scheduling phases.
///
/// Positions run in the set's TaskOrder: ascending consideration key, ties
/// in arrival order (sequence()), which is the order a stable sort of the
/// arrival sequence by key gives. For kBatchOrder that is arrival order.
/// Every index into the set — tasks(), sequence(), remove_scheduled() and
/// the task indices a search reports — is such a position.
class Batch {
 public:
  explicit Batch(TaskOrder order = TaskOrder::kBatchOrder) : order_(order) {}
  /// A set holding `tasks`, merged as one group of arrivals.
  explicit Batch(const std::vector<Task>& tasks,
                 TaskOrder order = TaskOrder::kBatchOrder);

  [[nodiscard]] TaskOrder order() const { return order_; }
  [[nodiscard]] bool empty() const { return tasks_.empty(); }
  [[nodiscard]] std::size_t size() const { return tasks_.size(); }
  /// The pending tasks, in position order.
  [[nodiscard]] const std::vector<Task>& tasks() const { return tasks_; }

  /// True when any pending task is a gang (width > 1).
  [[nodiscard]] bool has_gangs() const { return gangs_ != 0; }
  /// Arrival number of tasks()[i]: the merges since construction or the
  /// last clear()/reset() number their tasks 0, 1, 2, ... in arrival order.
  /// Positions with equal keys are in ascending sequence.
  [[nodiscard]] std::uint64_t sequence(std::size_t i) const {
    return sequence_[i];
  }

  /// Inserts newly arrived tasks, each at its rank: after every pending
  /// task with a key no larger than its own, and behind the earlier
  /// arrivals of the same group with an equal key. Every task must name at
  /// least one data holder and need at least one worker (InvalidArgument
  /// otherwise, set untouched). Ids are not checked here: the pipeline's
  /// TaskLedger rejects a repeated id when it arrives, and a task whose
  /// delivery was refused never leaves the set, so nothing is ever merged
  /// twice. Once the capacities have grown, a merge allocates nothing.
  void merge_arrivals(const std::vector<Task>& arrived);

  /// Removes the tasks at the given positions — the tasks that were
  /// scheduled in the phase that just ended, named by the indices the
  /// search reported. `indices` must be strictly ascending and each below
  /// size() (InvalidArgument otherwise, set untouched). The remaining tasks
  /// keep their order; nothing is allocated.
  void remove_scheduled(const std::vector<std::uint32_t>& indices);

  /// Culls tasks whose deadlines can no longer be met at time t
  /// (p_i + t_c > d_i, Sec. 4.1) and returns min_slack(t) of the tasks that
  /// remain (SimDuration::max() when none does), so a phase reads its set
  /// once. Each task's Task::slack_at(t) decides; from the first culled
  /// task on the survivors are compacted in place in their order. `culled`
  /// is overwritten with the culled tasks in position order (the experiment
  /// harness counts them as deadline misses); pass the same vector every
  /// phase and its capacity is reused.
  SimDuration cull_missed(SimTime t, std::vector<Task>& culled);

  /// Minimum slack over the set at time t (Min_Slack in Fig. 3).
  /// Requires a non-empty set.
  [[nodiscard]] SimDuration min_slack(SimTime t) const;

  /// Empties the set and restarts the arrival numbering; capacity is kept.
  void clear();
  /// clear(), and keep `order` from now on.
  void reset(TaskOrder order);

  /// Bytes of heap capacity the set holds (tasks, arrival numbers, scratch).
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  /// Moves positions [first, last) to [dest, dest + last - first), one
  /// block move per array.
  void shift(std::size_t first, std::size_t last, std::size_t dest);
  /// Sets size() to n.
  void resize(std::size_t n);

  TaskOrder order_;
  std::vector<Task> tasks_;
  std::vector<std::uint64_t> sequence_;  ///< arrival number of tasks_[i]
  std::uint64_t next_sequence_{0};
  std::size_t gangs_{0};  ///< pending tasks with width > 1
  /// merge_arrivals' scratch: the group's (key, arrival index) pairs, one
  /// 128-bit word each, so they sort with a branch-free comparison.
  std::vector<unsigned __int128> rank_;
};

}  // namespace rtds::tasks
