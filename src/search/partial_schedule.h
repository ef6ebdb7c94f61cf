// Partial schedules and the predictive feasibility test (Sec. 3, 4.1, 4.3).
//
// A partial schedule CPS is a path from the root of the task-space tree G:
// an ordered list of task-to-processor assignments. This class maintains the
// incremental state the search needs at the current vertex:
//   * ce_k — the completion offset of each worker's queue, measured from the
//     moment the schedule will be delivered (Sec. 4.4):
//       ce_k = max(0, Load_k(j-1) - Q_s(j)) + Σ (p_l + c_lk)
//   * the set of tasks already assigned on this path;
//   * CE = max_k ce_k, the load-balancing cost function.
//
// The feasibility test (Fig. 4) for adding (T_l -> P_k):
//     t_c + RQ_s(j) + se_lk <= d_l
// Because t_c + RQ_s(j) == t_s + Q_s(j) — the planned delivery time of the
// schedule — the test reduces to  delivery_time + se_lk <= d_l, where se_lk
// is T_l's end offset in P_k's queue. This is exactly the bound used in the
// paper's correction theorem, and it is what makes scheduled tasks immune to
// scheduling overhead: the whole quantum is charged up front.
//
// Hot-path layout (see docs/ARCHITECTURE.md "Search hot path" and "The
// pending set"): the search charges its entire vertex budget through
// evaluate/push/pop, so this class keeps only one search's state and reads
// the tasks in place:
//   * each task's constants are read from the pending set's tasks
//     (tasks::Batch) where they lie: deadline, processing time and earliest
//     start in absolute microseconds, affinity word and width, all in one
//     64-byte Task; the delivery time is subtracted where a test compares,
//     so starting a search copies nothing per task;
//   * ce_us_ — per-worker completion offsets (m contiguous 8-byte counts);
//   * unassigned_ — a 64-bit-word bitset over set positions (bit set =
//     still unassigned), giving O(n/64) find-first scans instead of a
//     std::vector<bool> walk. The set keeps its tasks in the search's
//     consideration order, so a scan returns tasks in heuristic order and
//     the task-word kernel tests the 64 adjacent tasks of one word.
// Backtracking is O(1): every Assignment carries the undo values prev_ce and
// prev_max_ce, so pop() restores both the worker's queue and CE without the
// historical O(m) rescan.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.h"
#include "common/time.h"
#include "machine/interconnect.h"
#include "tasks/batch.h"
#include "tasks/task.h"

namespace rtds::search {

using tasks::ProcessorId;
using tasks::Task;

/// One task-to-processor assignment (a vertex of G).
struct Assignment {
  /// The task's position in the pending set searched, or its index in the
  /// vector a vector entry was given.
  std::uint32_t task_index{0};
  ProcessorId worker{0};
  SimDuration exec_cost{SimDuration::zero()};  ///< p_l + c_lk
  /// Queue offset of the worker when this assignment was evaluated — the
  /// undo value for backtracking (start-time constraints can insert idle
  /// gaps, so popping cannot simply subtract exec_cost).
  SimDuration prev_ce{SimDuration::zero()};
  /// CE of the whole partial schedule when this assignment was evaluated —
  /// the undo value that makes pop() O(1) instead of an O(m) rescan.
  /// Valid because push/pop are strictly LIFO: the state after popping this
  /// assignment is exactly the state in which it was evaluated.
  SimDuration prev_max_ce{SimDuration::zero()};
  SimDuration start_offset{SimDuration::zero()};  ///< from delivery time
  SimDuration end_offset{SimDuration::zero()};    ///< se_lk, from delivery
};

/// Mutable path state for depth-first search with backtracking, over the
/// tasks of one pending set. Task indices are set positions, and the
/// consideration order is the set's order.
class PartialSchedule {
 public:
  /// Equivalent to reset() on a fresh object.
  PartialSchedule(const tasks::Batch* set,
                  const std::vector<SimDuration>& base_loads,
                  SimTime delivery_time, const machine::Interconnect* net);

  /// Starts a new empty path over `set`. It copies nothing per task: the
  /// set's tasks are read in place, so `set` must outlive the schedule's
  /// use and must not change while the schedule is in use. Only the
  /// per-worker offsets, the unassigned bitset (n/64 words) and the path
  /// are reset; once their capacities have grown to the largest set seen,
  /// a reset allocates nothing, so one schedule can serve every phase. The
  /// result is indistinguishable from a freshly constructed schedule.
  /// `base_loads[k]` is the worker's residual load at delivery time:
  /// max(0, Load_k(j-1) - Q_s(j)). `delivery_time` is t_s + Q_s(j), the
  /// time the schedule will reach the ready queues. `net` prices c_lk.
  void reset(const tasks::Batch* set,
             const std::vector<SimDuration>& base_loads,
             SimTime delivery_time, const machine::Interconnect* net);

  [[nodiscard]] std::uint32_t depth() const {
    return static_cast<std::uint32_t>(path_.size());
  }
  [[nodiscard]] std::uint32_t batch_size() const { return n_; }
  [[nodiscard]] bool complete() const { return depth() == batch_size(); }
  [[nodiscard]] bool assigned(std::uint32_t task_index) const {
    return ((unassigned_[task_index >> 6] >> (task_index & 63)) & 1u) == 0;
  }

  /// First position >= `pos` holding an unassigned task, or batch_size()
  /// when none. O(n/64) word scan. Inline, as push() and pop() are: the
  /// engine calls all three for every vertex it expands or enters.
  [[nodiscard]] std::uint32_t first_unassigned_at_or_after(
      std::uint32_t pos) const;

  /// Raw unassigned bitset (bit = set position), for zero-overhead
  /// iteration in the sequence-oriented expansion loop.
  [[nodiscard]] const std::vector<std::uint64_t>& unassigned_words() const {
    return unassigned_;
  }

  /// Completion offset of worker k's queue (from delivery time).
  [[nodiscard]] SimDuration ce(ProcessorId k) const {
    return SimDuration{ce_us_[k]};
  }

  /// CE — the load-balancing cost of this partial schedule (Sec. 4.4):
  /// the maximum completion offset over all workers.
  [[nodiscard]] SimDuration max_ce() const { return SimDuration{max_ce_us_}; }

  /// Minimum completion offset over all workers — the lower bound used by
  /// the engine's bulk infeasibility test. O(m).
  [[nodiscard]] SimDuration min_ce() const {
    std::int64_t lo = ce_us_[0];
    for (const std::int64_t ce : ce_us_) lo = std::min(lo, ce);
    return SimDuration{lo};
  }

  /// Lower-bound infeasibility test over ALL workers at once: end offsets
  /// are >= max(min_ce, es_off) + p (communication cost is non-negative),
  /// so when that bound already misses the deadline every one of the m
  /// placements is infeasible and the engine can charge the budget without
  /// evaluating each. `min_ce` must be this schedule's current min_ce().
  /// Sound for gangs too: a gang's start is the max completion offset over
  /// its worker block, which is >= min_ce, and the structurally invalid
  /// leads (block past worker m) are infeasible by definition.
  [[nodiscard]] bool task_unplaceable(std::uint32_t task_index,
                                      SimDuration min_ce) const {
    // In absolute time: min_ce >= 0, so max(min_ce, e - D) equals the
    // clamped offset max(min_ce, max(0, e - D)).
    const Task& task = tasks_[task_index];
    const std::int64_t lo = min_ce.us + delivery_us_;
    const std::int64_t es = task.earliest_start.us;
    return (lo > es ? lo : es) + task.processing.us > task.deadline.us;
  }

  /// p_l, for the hot loops.
  [[nodiscard]] std::int64_t processing_us(std::uint32_t i) const {
    return tasks_[i].processing.us;
  }
  /// True when any task in the set is a gang (width > 1).
  [[nodiscard]] bool has_gangs() const { return has_gangs_; }

  // -- batched evaluation (sequence-oriented expansion) ----------------------

  /// True when feasible_tasks_mask is exact for this whole set: constant
  /// cut-through communication and no gangs anywhere (the per-word batches
  /// come off the unassigned bitset, which doesn't know widths).
  [[nodiscard]] bool tasks_mask_eligible() const {
    return cut_through_ && !has_gangs_;
  }

  /// The Fig. 4 test of one worker against a word of the unassigned bitset:
  /// bit b set iff position 64 * word + b is unassigned and
  /// evaluate_fast(that task, worker) would be feasible,
  ///   max(ce_w, es) + p + (affinity bit of worker set ? 0 : C) <= d,
  /// with the same 64-bit arithmetic as evaluate_fast, so the mask equals
  /// its verdicts bit for bit. The lanes are the word's 64 adjacent tasks
  /// of the set, read in place. Preconditions: tasks_mask_eligible(), word
  /// below unassigned_words().size().
  [[nodiscard]] std::uint64_t feasible_tasks_mask(ProcessorId worker,
                                                  std::size_t word) const;

  /// Evaluates the candidate vertex (T_l -> P_k): computes cost and end
  /// offset, and applies the feasibility test of Fig. 4. Returns nullopt
  /// when infeasible. Does not modify the schedule.
  [[nodiscard]] std::optional<Assignment> evaluate(
      std::uint32_t task_index, ProcessorId worker) const;

  /// Precondition-free evaluation core for the search hot loop: same
  /// arithmetic and feasibility test as evaluate(), but writes into `out`
  /// (no optional) and validates nothing beyond debug assertions. Returns
  /// true when feasible. Callers must guarantee task_index/worker are in
  /// range and the task is unassigned. Inline: the engine evaluates every
  /// successor it generates and again every vertex it enters, and a caller
  /// that reads only some fields of `out` pays for no more.
  bool evaluate_fast(std::uint32_t task_index, ProcessorId worker,
                     Assignment& out) const;

  /// Extends the path by `a`, which must have been evaluated at the current
  /// state (evaluate() or evaluate_fast()). The engine stores a successor
  /// as a (task, worker) pair and evaluates it again when it enters it: it
  /// first restores the parent's state, and because push/pop are strictly
  /// LIFO that is the state the successor was generated in. The prev_ce and
  /// prev_max_ce asserts check this.
  void push(const Assignment& a);

  /// Undoes the most recent assignment (backtracking). O(1) for sequential
  /// tasks (restores the worker's queue offset and CE from the assignment's
  /// undo fields); O(k) for a k-worker gang, whose sibling offsets are
  /// restored from the side undo stack push() recorded.
  void pop();

  /// Assignments along the current path, in path order.
  [[nodiscard]] const std::vector<Assignment>& path() const { return path_; }

  /// Bytes of heap state this schedule holds (queue offsets, bitset, path,
  /// gang undo stack) — for the bench memory column. The set's tasks are
  /// the set's.
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  const machine::Interconnect* net_{nullptr};
  std::int64_t delivery_us_{0};
  /// The set's tasks, read in place (see header comment).
  const Task* tasks_{nullptr};
  std::uint32_t n_{0};
  bool has_gangs_{false};
  bool cut_through_{true};
  std::int64_t comm_us_{0};  ///< constant C (cut-through model only)
  /// Per-worker completion offsets in raw microseconds.
  std::vector<std::int64_t> ce_us_;
  std::int64_t max_ce_us_{0};
  /// Bit (per set position) set while unassigned.
  std::vector<std::uint64_t> unassigned_;
  std::vector<Assignment> path_;
  /// Sibling undo values for gang assignments: push() of a k-worker gang
  /// appends the k-1 pre-push completion offsets of workers
  /// [worker+1, worker+k) (the lead's lives in Assignment::prev_ce), and
  /// pop() restores them. Valid because push/pop are strictly LIFO.
  std::vector<SimDuration> gang_undo_;
};

inline bool PartialSchedule::evaluate_fast(std::uint32_t task_index,
                                           ProcessorId worker,
                                           Assignment& out) const {
  const Task& task = tasks_[task_index];
  // c_lk: 0 on a data holder, else C under cut-through routing (the set
  // rejected any task with no data holder). A mask, not a branch: mixed
  // affinity sets make the holder bit unpredictable.
  const std::uint64_t remote = ((task.affinity.raw() >> worker) & 1u) ^ 1u;
  std::int64_t comm_us = comm_us_ & -static_cast<std::int64_t>(remote);
  if (!cut_through_ && remote != 0) {
    comm_us = net_->comm_cost(task.affinity, worker).us;
  }

  const std::int64_t prev_ce_us = ce_us_[worker];
  // A k-worker gang claims the contiguous block [worker, worker+k): it can
  // start only once EVERY block member's queue has drained, and a block
  // running past worker m-1 is no placement at all. k == 1 (the common
  // case) skips the block scan entirely.
  std::int64_t block_ce_us = prev_ce_us;
  const std::uint32_t width = task.workers_required;
  if (width > 1) {
    if (std::size_t{worker} + width > ce_us_.size()) return false;
    for (std::uint32_t j = 1; j < width; ++j) {
      block_ce_us = std::max(block_ce_us, ce_us_[worker + j]);
    }
  }
  // Execution cannot start before the task's start-time constraint; the
  // worker idles until then (footnote 1 task model). Offsets are from the
  // delivery time; block_ce_us >= 0, so an earliest start already passed
  // (a negative offset) never wins the max.
  const std::int64_t es_us = task.earliest_start.us - delivery_us_;
  const std::int64_t start_us = block_ce_us > es_us ? block_ce_us : es_us;
  const std::int64_t end_us = start_us + task.processing.us + comm_us;

  // Fig. 4: t_c + RQ_s(j) + se_lk <= d_l, with t_c + RQ_s == delivery_time.
  if (end_us > task.deadline.us - delivery_us_) return false;

  out.task_index = task_index;
  out.worker = worker;
  out.exec_cost = SimDuration{task.processing.us + comm_us};
  out.prev_ce = SimDuration{prev_ce_us};
  out.prev_max_ce = SimDuration{max_ce_us_};
  out.start_offset = SimDuration{start_us};
  out.end_offset = SimDuration{end_us};
  return true;
}

inline std::uint32_t PartialSchedule::first_unassigned_at_or_after(
    std::uint32_t pos) const {
  if (pos >= n_) return n_;
  std::size_t word = pos >> 6;
  // Mask off positions below `pos` in the first word.
  std::uint64_t bits = unassigned_[word] & (~std::uint64_t{0} << (pos & 63));
  while (bits == 0) {
    if (++word == unassigned_.size()) return n_;
    bits = unassigned_[word];
  }
  return static_cast<std::uint32_t>((word << 6) +
                                    std::uint32_t(std::countr_zero(bits)));
}

inline void PartialSchedule::push(const Assignment& a) {
  RTDS_ASSERT(!assigned(a.task_index));
  const std::uint32_t k = tasks_[a.task_index].workers_required;
  RTDS_ASSERT(std::size_t{a.worker} + k <= ce_us_.size());
  // Integrity: the assignment must have been evaluated at this exact state.
  RTDS_ASSERT(ce_us_[a.worker] == a.prev_ce.us);
  RTDS_ASSERT(max_ce_us_ == a.prev_max_ce.us);
  unassigned_[a.task_index >> 6] &= ~(std::uint64_t{1} << (a.task_index & 63));
  // A gang charges its whole worker block to the same end offset; the
  // siblings' pre-push offsets go on the side undo stack (the lead's is
  // Assignment::prev_ce).
  for (std::uint32_t j = 1; j < k; ++j) {
    gang_undo_.push_back(SimDuration{ce_us_[a.worker + j]});
    ce_us_[a.worker + j] = a.end_offset.us;
  }
  ce_us_[a.worker] = a.end_offset.us;
  max_ce_us_ = std::max(max_ce_us_, a.end_offset.us);
  path_.push_back(a);
}

inline void PartialSchedule::pop() {
  RTDS_REQUIRE(!path_.empty(), "pop: empty path");
  const Assignment& a = path_.back();
  unassigned_[a.task_index >> 6] |= std::uint64_t{1} << (a.task_index & 63);
  const std::uint32_t k = tasks_[a.task_index].workers_required;
  for (std::uint32_t j = k; j-- > 1;) {
    ce_us_[a.worker + j] = gang_undo_.back().us;
    gang_undo_.pop_back();
  }
  ce_us_[a.worker] = a.prev_ce.us;
  // LIFO discipline means the pre-push CE recorded on the assignment is
  // exactly the post-pop CE — no rescan needed.
  max_ce_us_ = a.prev_max_ce.us;
  path_.pop_back();
}

}  // namespace rtds::search
