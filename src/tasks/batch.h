// Batch maintenance (Sec. 4).
//
// The input to each scheduling phase j is Batch(j). At the end of phase j,
// Batch(j+1) is formed by removing from Batch(j) the tasks that were
// scheduled and the tasks whose deadlines were missed, and by adding the
// tasks that arrived during phase j. Scheduled tasks never re-enter a later
// batch (they are delivered to worker ready queues instead).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time.h"
#include "tasks/task.h"

namespace rtds::tasks {

/// Mutable batch of pending tasks between scheduling phases.
///
/// Order is preserved across operations (arrival order, then merge order)
/// so that schedulers see a deterministic candidate ordering.
class Batch {
 public:
  Batch() = default;

  [[nodiscard]] bool empty() const { return tasks_.empty(); }
  [[nodiscard]] std::size_t size() const { return tasks_.size(); }
  [[nodiscard]] const std::vector<Task>& tasks() const { return tasks_; }

  /// Appends newly arrived tasks in their order. Ids are not checked here:
  /// the pipeline's TaskLedger rejects a repeated id when it arrives, and a
  /// task whose delivery was refused never leaves the batch, so nothing is
  /// ever merged twice.
  void merge_arrivals(const std::vector<Task>& arrived);

  /// Removes the tasks at the given batch positions — the tasks that were
  /// scheduled in the phase that just ended, named by the indices the
  /// search reported against tasks(). `indices` must be strictly ascending
  /// and each below size() (InvalidArgument otherwise, batch untouched).
  /// The remaining tasks keep their order; nothing is allocated.
  void remove_scheduled(const std::vector<std::uint32_t>& indices);

  /// Culls tasks whose deadlines can no longer be met at time t
  /// (p_i + t_c > d_i, Sec. 4.1), compacting the survivors in place in
  /// their order. `culled` is overwritten with the culled tasks in batch
  /// order (the experiment harness counts them as deadline misses); pass
  /// the same vector every phase and its capacity is reused.
  void cull_missed(SimTime t, std::vector<Task>& culled);

  /// Minimum slack over the batch at time t (Min_Slack in Fig. 3).
  /// Requires a non-empty batch.
  [[nodiscard]] SimDuration min_slack(SimTime t) const;

  /// Total processing demand of the batch (used by ablation benches).
  [[nodiscard]] SimDuration total_processing() const;

  void clear() { tasks_.clear(); }

 private:
  std::vector<Task> tasks_;
};

}  // namespace rtds::tasks
