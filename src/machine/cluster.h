// The distributed-memory multiprocessor model.
//
// One dedicated host processor runs the scheduler (src/sched); the m worker
// processors execute scheduled tasks from their ready queues, one at a time,
// non-preemptably (Sec. 2 / Sec. 4). Because workers only ever drain FIFO
// ready queues of non-preemptable tasks, execution is analytically
// deterministic: when a schedule is delivered we can compute every start and
// end time immediately, keeping only a per-worker `busy_until` horizon. The
// simulated host clock (src/sim) orders schedule deliveries against task
// arrivals.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "machine/interconnect.h"
#include "tasks/task.h"

namespace rtds::machine {

using tasks::ProcessorId;
using tasks::Task;
using tasks::TaskId;

/// One task-to-processor assignment within a delivered schedule, in
/// schedule order for its worker. For a gang task (workers_required == k),
/// `worker` is the LEAD of the contiguous block [worker, worker+k): the
/// whole block executes the job simultaneously.
struct ScheduledAssignment {
  Task task;
  ProcessorId worker{0};
};

/// Completion record for one executed task. A k-worker gang produces ONE
/// record (the lead's) with width == k; the siblings' occupancy is implied
/// by the contiguous-block rule.
struct CompletionRecord {
  TaskId task{0};
  ProcessorId worker{0};
  SimTime delivered{SimTime::zero()};  ///< when the schedule reached the queue
  SimTime start{SimTime::zero()};
  SimTime end{SimTime::zero()};
  SimTime deadline{SimTime::zero()};
  SimDuration comm_cost{SimDuration::zero()};
  std::uint32_t width{1};  ///< workers occupied: [worker, worker+width)
  [[nodiscard]] bool met_deadline() const { return end <= deadline; }
};

/// Aggregate execution statistics.
struct ExecutionStats {
  std::uint64_t executed{0};
  std::uint64_t deadline_hits{0};
  /// Misses *during execution* — the correction theorem says schedulers
  /// using the predictive feasibility test keep this at zero.
  std::uint64_t deadline_misses{0};
};

/// How workers treat the gap between a task's worst-case and actual cost.
enum class ReclaimMode {
  /// Execute the worst-case estimate the scheduler planned with (paper).
  kWorstCase,
  /// Resource reclaiming (the paper's ref [3]): execute the actual demand
  /// and start the next queued task early. Sound for the correction
  /// theorem: actual <= worst case, so completions only move earlier.
  kReclaim,
};

/// The cluster: m workers + interconnect + execution bookkeeping.
class Cluster {
 public:
  Cluster(std::uint32_t num_workers, Interconnect interconnect,
          ReclaimMode reclaim = ReclaimMode::kWorstCase);

  [[nodiscard]] ReclaimMode reclaim_mode() const { return reclaim_; }

  /// Total execution time saved by reclaiming so far (zero in kWorstCase).
  [[nodiscard]] SimDuration reclaimed_time() const { return reclaimed_; }

  [[nodiscard]] std::uint32_t num_workers() const { return num_workers_; }
  [[nodiscard]] const Interconnect& interconnect() const {
    return interconnect_;
  }

  /// Total execution cost p + c of `task` on `worker`.
  [[nodiscard]] SimDuration execution_cost(const Task& task,
                                           ProcessorId worker) const {
    return task.processing + interconnect_.comm_cost(task.affinity, worker);
  }

  /// Delivers a schedule to the worker ready queues at time `now`
  /// (assignments are appended in order). Start/end times are computed
  /// immediately; completion records accumulate in the log.
  void deliver(const std::vector<ScheduledAssignment>& schedule, SimTime now);

  /// Remaining work on `worker` at time t: Load_k in the paper's quantum
  /// criterion (Fig. 3).
  [[nodiscard]] SimDuration load(ProcessorId worker, SimTime t) const;

  /// Min over workers of load(k, t): Min_Load in Fig. 3.
  [[nodiscard]] SimDuration min_load(SimTime t) const;

  /// Per-worker committed-completion horizon (absolute time).
  [[nodiscard]] SimTime busy_until(ProcessorId worker) const;

  /// Latest completion over all workers (simulation makespan so far).
  [[nodiscard]] SimTime makespan() const;

  /// Total busy time accumulated on `worker` (for utilization metrics).
  [[nodiscard]] SimDuration busy_time(ProcessorId worker) const;

  [[nodiscard]] const std::vector<CompletionRecord>& log() const {
    return log_;
  }
  [[nodiscard]] const ExecutionStats& stats() const { return stats_; }

 private:
  struct Worker {
    SimTime busy_until{SimTime::zero()};
    SimDuration busy_time{SimDuration::zero()};
  };

  std::uint32_t num_workers_;
  Interconnect interconnect_;
  ReclaimMode reclaim_;
  SimDuration reclaimed_{SimDuration::zero()};
  std::vector<Worker> workers_;
  std::vector<CompletionRecord> log_;
  ExecutionStats stats_;
};

}  // namespace rtds::machine
