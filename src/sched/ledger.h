// Task-conservation ledger: exact accounting of every offered task.
//
// PR 1 made mailbox delivery non-blocking, which introduced a loss channel
// the metrics could not see: an assignment refused by a full mailbox was
// retired from the batch as if it had been delivered, so it was never
// executed, never re-scheduled, and never counted — a silent violation of
// the correction theorem's promise under overload. The ledger closes that
// hole by tracking every task through an explicit lifecycle:
//
//   arrived → batched → scheduled → delivered → {deadline_hit, exec_miss}
//      │         │           │
//      │         │           ├─ dropped (delivery refused, refusals + 1)
//      │         │           │    → batched again
//      │         │           └─ rejected (delivery attempts exhausted)
//      │         └─ culled   (deadline unreachable before scheduling)
//      └─ admission_rejected (open-system admission control turned the
//                             task away at the door; never batched)
//
// Each entry also counts its task's refused deliveries: drop() adds one,
// and the pipeline reads refusals() to decide whether the next refusal
// readmits the task or rejects it. The count lives and dies with the
// entry, so it survives every re-schedule and cannot outlive its task.
//
// The ledger enforces the conservation invariant at drain time:
//
//   total_tasks == deadline_hits + exec_misses + culled + rejected
//                  + admission_rejected
//
// The pipeline (sched/pipeline.cc) drives the pre-delivery transitions;
// each ExecutionBackend reports the per-task terminal outcome (hit/miss)
// at its next clock call after the delivery, and at the latest in drain().
// Illegal transitions throw InvariantViolation — a task can never be
// double-counted or skip a state.
//
// Memory is O(tasks in flight), so a streaming service can run without
// end: a task's entry is erased on its terminal transition, and only the
// counters remember it. The entries live in one flat open-addressing table
// (linear probing, a multiplicative hash of the id, backward-shift
// erasure) whose power-of-two capacity grows with the peak number of
// tasks in flight and never shrinks, so once grown an arrival allocates
// nothing and a terminal transition frees nothing. The ids seen so far
// are kept as disjoint ranges, so a repeated id is still caught after the
// first copy retired, at O(1) memory while ids arrive consecutively: the
// highest range is held beside the range map, so ids that arrive
// consecutively touch no map node, and a cleared ledger that sees them
// again allocates nothing.
//
// The ledger is host-thread-only: backends with worker threads buffer
// outcomes internally and flush them on the host thread (see
// ThreadedBackend).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "tasks/task.h"

namespace rtds::sched {

/// Lifecycle state of one task. kDeadlineHit, kExecMiss, kCulled,
/// kRejected and kAdmissionRejected are terminal; everything else is in
/// flight.
enum class TaskState : std::uint8_t {
  kArrived,      ///< offered to the pipeline, not yet in a batch
  kBatched,      ///< pending in the current batch (also after a drop)
  kScheduled,    ///< assigned by the search, delivery in progress
  kDelivered,    ///< accepted into a worker ready queue
  kDeadlineHit,  ///< executed and met its deadline
  kExecMiss,     ///< executed but missed (theorem: 0 on the DES)
  kCulled,       ///< dropped from a batch, deadline unreachable
  kRejected,     ///< delivery refused max_delivery_attempts times
  kAdmissionRejected,  ///< turned away at admission (open system, full queue)
};

[[nodiscard]] const char* to_string(TaskState state);

/// Aggregate view of a ledger; conserved() is the drain-time invariant.
struct LedgerCounts {
  std::uint64_t total{0};
  std::uint64_t deadline_hits{0};
  std::uint64_t exec_misses{0};
  std::uint64_t culled{0};
  std::uint64_t rejected{0};
  /// Open-system admission control turned the task away before it entered
  /// any batch. Always 0 in closed (whole-workload) runs.
  std::uint64_t admission_rejected{0};
  std::uint64_t in_flight{0};  ///< tasks not yet in a terminal state

  // Transition event counters (a task can contribute several). They exist
  // for external oracles (src/testing) to cross-check the pipeline's
  // aggregate metrics against the per-task lifecycle:
  //   schedule_events == delivery_events + drop_events + rejected
  //   delivery_events == RunMetrics::scheduled
  //   drop_events     == RunMetrics::readmissions
  std::uint64_t schedule_events{0};  ///< batched → scheduled transitions
  std::uint64_t delivery_events{0};  ///< scheduled → delivered transitions
  std::uint64_t drop_events{0};      ///< scheduled → batched (readmissions)

  /// Every offered task reached exactly one terminal state.
  [[nodiscard]] bool conserved() const {
    return in_flight == 0 &&
           total == deadline_hits + exec_misses + culled + rejected +
                        admission_rejected;
  }
};

/// Tracks the lifecycle state of every in-flight task of one pipeline run.
class TaskLedger {
 public:
  TaskLedger() = default;

  // -- transitions (each validates the source state) ------------------------
  void arrive(tasks::TaskId id);             ///< (new) → arrived
  void admit(tasks::TaskId id);              ///< arrived → batched
  void schedule(tasks::TaskId id);           ///< batched → scheduled
  void deliver(tasks::TaskId id);            ///< scheduled → delivered
  /// scheduled → batched (readmit); counts one more refused delivery.
  void drop(tasks::TaskId id);
  void cull(tasks::TaskId id);               ///< batched → culled
  void reject(tasks::TaskId id);             ///< scheduled → rejected
  void reject_admission(tasks::TaskId id);   ///< arrived → admission_rejected
  void execute(tasks::TaskId id, bool hit);  ///< delivered → hit | miss

  // -- inspection -----------------------------------------------------------
  /// The id arrived since construction or the last clear(), whether it is
  /// still in flight or already retired.
  [[nodiscard]] bool known(tasks::TaskId id) const;
  /// State of an in-flight task; throws for a retired or unknown id.
  [[nodiscard]] TaskState state(tasks::TaskId id) const;
  /// Deliveries of an in-flight task refused so far (its drop() calls);
  /// throws for a retired or unknown id.
  [[nodiscard]] std::uint32_t refusals(tasks::TaskId id) const;
  [[nodiscard]] const LedgerCounts& counts() const { return counts_; }
  /// Entries held: the tasks in flight (terminal tasks leave the ledger).
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots of the entry table: 0 before the first arrival, then a power of
  /// two at least twice size(), grown to the peak of tasks in flight.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }
  /// The slot where a table of `capacity` slots (a power of two) starts
  /// looking for `id`; ids that share one collide.
  [[nodiscard]] static std::size_t home_slot(tasks::TaskId id,
                                             std::size_t capacity);
  /// Disjoint id ranges the seen ids occupy: 1 while ids arrive
  /// consecutively, whatever their number.
  [[nodiscard]] std::size_t seen_ranges() const {
    return seen_.size() + (has_tail_ ? 1 : 0);
  }
  /// Bytes of heap the entry table holds.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return slots_.capacity() * sizeof(Slot);
  }

  /// Throws InvariantViolation unless counts().conserved().
  void check_conserved() const;

  /// Forgets every entry, counter and seen id; the table keeps its slots.
  /// O(1) when no task is in flight, as after a conserved run: the table
  /// is then already empty.
  void clear();

 private:
  /// One slot of the entry table; `live` is false in a free slot.
  struct Slot {
    tasks::TaskId id{0};
    std::uint32_t refusals{0};
    TaskState state{TaskState::kArrived};
    bool live{false};
  };

  /// Index of the slot holding `id`, or capacity() when it holds none.
  [[nodiscard]] std::size_t find(tasks::TaskId id) const;
  /// Stores a new entry for `id`, which holds none, growing the table to
  /// keep it at most half full.
  void insert(tasks::TaskId id);
  /// Stores `slot` in the first free slot of its probe run.
  void place(const Slot& slot);
  /// Frees slot `i`, moving later entries of its probe run back so every
  /// entry stays reachable from its home slot.
  void erase(std::size_t i);
  /// The slot of `id`, which must be in state `from` (about to become
  /// `to`); throws InvariantViolation otherwise.
  Slot& expect(tasks::TaskId id, TaskState from, TaskState to);
  Slot& transition(tasks::TaskId id, TaskState from, TaskState to);
  /// The slot of an in-flight id; throws for a retired or unknown one.
  const Slot& entry(tasks::TaskId id) const;
  /// Terminal transition: the entry is erased, the counters remember it.
  void retire(tasks::TaskId id, TaskState from, TaskState to);
  /// Records `id` as seen; false if it already was.
  bool insert_seen(tasks::TaskId id);

  /// Open-addressing table of the in-flight entries (see header comment).
  std::vector<Slot> slots_;
  std::size_t size_{0};
  /// Seen ids as disjoint, non-adjacent inclusive ranges: first → last,
  /// all below the tail range and none adjacent to it.
  std::map<tasks::TaskId, tasks::TaskId> seen_;
  /// The highest seen range [tail_first_, tail_last_], when has_tail_.
  tasks::TaskId tail_first_{0};
  tasks::TaskId tail_last_{0};
  bool has_tail_{false};
  LedgerCounts counts_;
};

}  // namespace rtds::sched
