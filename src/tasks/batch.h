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
// phase loop read each field from the task. Upkeep costs what changed, not
// what stayed: the live range sits at a head offset in its storage, so a
// removal moves the survivors on whichever side of it holds fewer, and the
// cull stops reading where no later task can be culled
// (docs/ARCHITECTURE.md, "The pending set").
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
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
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// The pending tasks, in position order. The view is valid until the
  /// next mutation.
  [[nodiscard]] std::span<const Task> tasks() const {
    return {tasks_.data() + head_, size_};
  }

  /// True when any pending task is a gang (width > 1).
  [[nodiscard]] bool has_gangs() const { return gangs_ != 0; }
  /// Arrival number of tasks()[i]: the merges since construction or the
  /// last clear()/reset() number their tasks 0, 1, 2, ... in arrival order.
  /// Positions with equal keys are in ascending sequence.
  [[nodiscard]] std::uint64_t sequence(std::size_t i) const {
    return sequence_[head_ + i];
  }

  /// Inserts newly arrived tasks, each at its rank: after every pending
  /// task with a key no larger than its own, and behind the earlier
  /// arrivals of the same group with an equal key. A group of at least
  /// 256 arrivals is ordered by a stable LSD radix sort over the key bytes
  /// that vary in it, a smaller one by std::sort. Every task must name at
  /// least one data holder and need at least one worker (InvalidArgument
  /// otherwise, set untouched). Ids are not checked here: the pipeline's
  /// TaskLedger rejects a repeated id when it arrives, and a task whose
  /// delivery was refused never leaves the set, so nothing is ever merged
  /// twice. When the storage has no room behind the live range, the range
  /// first moves back to the front of the storage, and only if that is not
  /// enough does the storage grow. Once it has grown, a merge allocates
  /// nothing.
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
  /// once. Each task's Task::slack_at(t) decides. `culled` is overwritten
  /// with the ids of the culled tasks in position order (the experiment
  /// harness counts them as deadline misses); pass the same vector every
  /// phase and its capacity is reused.
  ///
  /// The scan stops where no later task can be culled or lower the
  /// result. The set keeps running maxima p_max and e_max of the
  /// processing times and earliest starts merged since it was last empty
  /// (they never fall while it holds a task, so they may be too high,
  /// which only makes the bound weaker). In EDF order a task at or after
  /// position i has slack at least d_i - p_max - max(t, e_max); in
  /// min-slack order at least (d_i - p_i) - max(t, e_max). Once that bound
  /// reaches the smallest slack found so far, the rest of the set is left
  /// unread. A kBatchOrder set is read to its end.
  SimDuration cull_missed(SimTime t, std::vector<TaskId>& culled);

  /// Minimum slack over the set at time t (Min_Slack in Fig. 3).
  /// Requires a non-empty set.
  [[nodiscard]] SimDuration min_slack(SimTime t) const;

  /// Empties the set and restarts the arrival numbering; capacity is kept.
  void clear();
  /// clear(), and keep `order` from now on.
  void reset(TaskOrder order);

  /// Bytes of heap capacity the set holds (tasks, arrival numbers, scratch).
  [[nodiscard]] std::size_t footprint_bytes() const;
  /// Where the live range starts in the storage, and the tasks the storage
  /// has room for: inspection for the tests of the upkeep's moves.
  [[nodiscard]] std::size_t head() const { return head_; }
  [[nodiscard]] std::size_t capacity() const { return tasks_.size(); }

 private:
  /// Moves live positions [first, last) to [dest, dest + last - first),
  /// one block move per array.
  void shift(std::size_t first, std::size_t last, std::size_t dest);
  /// Makes room for `k` more tasks behind the live range: moves the range
  /// to the front of the storage when that is needed, then grows the
  /// storage when even that is not enough.
  void reserve_back(std::size_t k);
  /// Sorts rank_ (the group's (key, index) words) ascending.
  void sort_rank();
  /// Removes the `count` live positions at `positions` (strictly
  /// ascending). The survivors on the side of the removed positions that
  /// holds fewer of them move: those after the first removal move down,
  /// or those before the last removal move up and the head advances.
  void erase(const std::uint32_t* positions, std::size_t count);
  /// Called when the set holds no task: the live range returns to the
  /// front and the running maxima restart.
  void on_empty();

  TaskOrder order_;
  /// Storage of the live range [head_, head_ + size_): its size() is the
  /// storage's, not the set's.
  std::vector<Task> tasks_;
  std::vector<std::uint64_t> sequence_;  ///< arrival number of tasks_[i]
  std::size_t head_{0};
  std::size_t size_{0};
  std::uint64_t next_sequence_{0};
  std::size_t gangs_{0};  ///< pending tasks with width > 1
  /// Running maxima of p and e (us) since the set was last empty: the
  /// cull's bound.
  std::int64_t max_processing_{0};
  std::int64_t max_start_{0};
  /// merge_arrivals' scratch: the group's (key, arrival index) pairs, one
  /// 128-bit word each, and the radix sort's second buffer.
  std::vector<unsigned __int128> rank_;
  std::vector<unsigned __int128> rank_scratch_;
  /// cull_missed's scratch: the positions it culls.
  std::vector<std::uint32_t> removed_;
};

}  // namespace rtds::tasks
