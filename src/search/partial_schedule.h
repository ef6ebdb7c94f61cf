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
// Hot-path layout (see docs/ARCHITECTURE.md "Search hot path"): the search
// charges its entire vertex budget through evaluate/push/pop, so this class
// keeps flat structure-of-arrays state sized at reset() and touches nothing
// else:
//   * p_us_/es_us_/d_us_/aff_bits_/width_ — the per-task constants, one
//     contiguous array per field in raw delivery-relative microseconds, so
//     evaluation never dereferences the 56-byte Task and the task-word
//     kernel (feasible_tasks_mask) reads its lanes straight out of them;
//   * ce_us_ — per-worker completion offsets (m contiguous 8-byte counts);
//   * unassigned_ — a 64-bit-word bitset over *consideration-order
//     positions* (bit set = still unassigned), giving O(n/64) find-first
//     scans instead of a std::vector<bool> walk, and supplying the words
//     the task-word kernel tests at once.
// Backtracking is O(1): every Assignment carries the undo values prev_ce and
// prev_max_ce, so pop() restores both the worker's queue and CE without the
// historical O(m) rescan.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.h"
#include "common/time.h"
#include "machine/interconnect.h"
#include "tasks/task.h"

namespace rtds::search {

using tasks::ProcessorId;
using tasks::Task;

/// One task-to-processor assignment (a vertex of G).
struct Assignment {
  std::uint32_t task_index{0};  ///< index into the phase's batch snapshot
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

/// Mutable path state for depth-first search with backtracking.
class PartialSchedule {
 public:
  /// Per-task constants in raw microseconds relative to the delivery time.
  /// Storage is one array per field (see header comment); this struct is the
  /// assembled by-value view for cold-path callers (portfolio heuristics,
  /// tests).
  struct TaskConstants {
    std::int64_t processing_us{0};  ///< p_l
    std::int64_t es_off_us{0};      ///< max(0, earliest_start - delivery)
    std::int64_t d_off_us{0};       ///< deadline - delivery (may be < 0)
    std::uint64_t affinity_bits{0};  ///< AffinitySet::raw()
    /// Gang width k: the job occupies the contiguous worker block
    /// [worker, worker+k). k == 1 is the sequential task model.
    std::uint32_t workers_required{1};
  };

  /// Equivalent to reset() on a fresh object.
  PartialSchedule(const std::vector<Task>* batch,
                  const std::vector<SimDuration>& base_loads,
                  SimTime delivery_time, const machine::Interconnect* net);

  /// Starts a new empty path over `batch`, refilling every array in place:
  /// once the capacities have grown to the largest batch seen, a reset
  /// allocates nothing, so one schedule can serve every phase. The result
  /// is indistinguishable from a freshly constructed schedule — identity
  /// consideration order, empty path, no gang undo state.
  ///
  /// `batch` must outlive the next reset and must not be mutated while it
  /// is in use: task parameters are snapshotted into the per-task constants
  /// here (delivery-relative offsets can only be precomputed once).
  /// `base_loads[k]` is the worker's residual load at delivery time:
  /// max(0, Load_k(j-1) - Q_s(j)). `delivery_time` is t_s + Q_s(j), the
  /// time the schedule will reach the ready queues. `net` prices c_lk.
  void reset(const std::vector<Task>* batch,
             const std::vector<SimDuration>& base_loads,
             SimTime delivery_time, const machine::Interconnect* net);

  /// Declares the consideration order the search iterates tasks in, so the
  /// unassigned bitset lives in order-position space and find-first scans
  /// return positions in heuristic order. `order` must be a permutation of
  /// [0, batch_size) that outlives this object, or nullptr for the identity
  /// order (the kBatchOrder fast path — no index vector needed at all).
  /// Must be called before the first push.
  void set_consideration_order(const std::uint32_t* order);

  [[nodiscard]] std::uint32_t depth() const {
    return static_cast<std::uint32_t>(path_.size());
  }
  [[nodiscard]] std::uint32_t batch_size() const {
    return static_cast<std::uint32_t>(batch_->size());
  }
  /// Tasks in the root the last reset() snapshotted. Unlike batch_size(),
  /// it reads nothing of that root's batch, which may have changed since.
  [[nodiscard]] std::uint32_t snapshot_size() const {
    return static_cast<std::uint32_t>(p_us_.size());
  }
  [[nodiscard]] bool complete() const { return depth() == batch_size(); }
  [[nodiscard]] bool assigned(std::uint32_t task_index) const {
    const std::uint32_t pos = pos_of(task_index);
    return ((unassigned_[pos >> 6] >> (pos & 63)) & 1u) == 0;
  }
  [[nodiscard]] SimTime delivery_time() const { return delivery_time_; }

  /// First consideration-order position >= `pos` holding an unassigned
  /// task, or batch_size() when none. O(n/64) word scan.
  [[nodiscard]] std::uint32_t first_unassigned_at_or_after(
      std::uint32_t pos) const;

  /// Task index at consideration-order position `pos`.
  [[nodiscard]] std::uint32_t task_at(std::uint32_t pos) const {
    return order_ == nullptr ? pos : order_[pos];
  }

  /// Consideration-order position of task `task_index` (task_at's inverse).
  [[nodiscard]] std::uint32_t pos_of(std::uint32_t task_index) const {
    return pos_of_task_.empty() ? task_index : pos_of_task_[task_index];
  }

  /// Raw unassigned bitset (bit = consideration-order position), for
  /// zero-overhead iteration in the sequence-oriented expansion loop.
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
    const std::int64_t es = es_us_[task_index];
    const std::int64_t start = min_ce.us > es ? min_ce.us : es;
    return start + p_us_[task_index] > d_us_[task_index];
  }

  /// Assembled per-task constants (by value — storage is SoA).
  [[nodiscard]] TaskConstants constants(std::uint32_t task_index) const {
    return TaskConstants{p_us_[task_index], es_us_[task_index],
                         d_us_[task_index], aff_bits_[task_index],
                         width_[task_index]};
  }

  /// Direct SoA field reads for the hot loops.
  [[nodiscard]] std::int64_t processing_us(std::uint32_t i) const {
    return p_us_[i];
  }
  [[nodiscard]] std::int64_t d_off_us(std::uint32_t i) const {
    return d_us_[i];
  }
  [[nodiscard]] std::uint32_t workers_required(std::uint32_t i) const {
    return width_[i];
  }
  /// True when any task in the batch is a gang (width > 1).
  [[nodiscard]] bool has_gangs() const { return has_gangs_; }

  // -- batched evaluation (sequence-oriented expansion) ----------------------

  /// True when feasible_tasks_mask is exact for this whole batch: constant
  /// cut-through communication and no gangs anywhere (the per-word batches
  /// come off the unassigned bitset, which doesn't know widths).
  [[nodiscard]] bool tasks_mask_eligible() const {
    return cut_through_ && !has_gangs_;
  }

  /// Bit j set iff evaluate_fast(tasks[j], worker) would be feasible: the
  /// Fig. 4 test of one worker against a word of candidate tasks,
  ///   max(ce_w, es) + p + (affinity bit of worker set ? 0 : C) <= d,
  /// with the same 64-bit arithmetic as evaluate_fast, so the mask equals
  /// its verdicts bit for bit. `tasks` holds `count` <= 64 unassigned task
  /// ids. Preconditions: tasks_mask_eligible().
  [[nodiscard]] std::uint64_t feasible_tasks_mask(
      ProcessorId worker, const std::uint32_t* tasks,
      std::uint32_t count) const;

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

  /// Bytes of heap state this schedule holds (SoA constants, bitset, path) —
  /// for the bench memory column.
  [[nodiscard]] std::size_t footprint_bytes() const;

 private:
  /// max(0, earliest_start - delivery_time_), the es_us_ entry of `t`.
  [[nodiscard]] std::int64_t es_off_us(const Task& t) const {
    return t.earliest_start > delivery_time_
               ? (t.earliest_start - delivery_time_).us
               : 0;
  }
  void reset_unassigned_bits();

  const std::vector<Task>* batch_{nullptr};
  const machine::Interconnect* net_{nullptr};
  SimTime delivery_time_{SimTime::zero()};
  /// Per-worker completion offsets in raw microseconds (SoA hot vector).
  std::vector<std::int64_t> ce_us_;
  std::int64_t max_ce_us_{0};
  // Per-task constants, one contiguous array per field (SoA).
  std::vector<std::int64_t> p_us_;
  std::vector<std::int64_t> es_us_;
  std::vector<std::int64_t> d_us_;
  std::vector<std::uint64_t> aff_bits_;
  std::vector<std::uint32_t> width_;
  bool has_gangs_{false};
  bool cut_through_{true};
  std::int64_t comm_us_{0};  ///< constant C (cut-through model only)
  /// Bit (per consideration-order position) set while unassigned.
  std::vector<std::uint64_t> unassigned_;
  const std::uint32_t* order_{nullptr};        ///< nullptr = identity
  std::vector<std::uint32_t> pos_of_task_;     ///< empty = identity
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
  // c_lk: 0 on a data holder, else C under cut-through routing (reset()
  // rejected any task with no data holder). A mask, not a branch: mixed
  // affinity sets make the holder bit unpredictable.
  const std::uint64_t remote = ((aff_bits_[task_index] >> worker) & 1u) ^ 1u;
  std::int64_t comm_us = comm_us_ & -static_cast<std::int64_t>(remote);
  if (!cut_through_ && remote != 0) {
    comm_us = net_->comm_cost((*batch_)[task_index].affinity, worker).us;
  }

  const std::int64_t prev_ce_us = ce_us_[worker];
  // A k-worker gang claims the contiguous block [worker, worker+k): it can
  // start only once EVERY block member's queue has drained, and a block
  // running past worker m-1 is no placement at all. k == 1 (the common
  // case) skips the block scan entirely.
  std::int64_t block_ce_us = prev_ce_us;
  const std::uint32_t width = width_[task_index];
  if (width > 1) {
    if (std::size_t{worker} + width > ce_us_.size()) return false;
    for (std::uint32_t j = 1; j < width; ++j) {
      block_ce_us = std::max(block_ce_us, ce_us_[worker + j]);
    }
  }
  // Execution cannot start before the task's start-time constraint; the
  // worker idles until then (footnote 1 task model).
  const std::int64_t es_us = es_us_[task_index];
  const std::int64_t start_us = block_ce_us > es_us ? block_ce_us : es_us;
  const std::int64_t end_us = start_us + p_us_[task_index] + comm_us;

  // Fig. 4: t_c + RQ_s(j) + se_lk <= d_l, with t_c + RQ_s == delivery_time.
  if (end_us > d_us_[task_index]) return false;

  out.task_index = task_index;
  out.worker = worker;
  out.exec_cost = SimDuration{p_us_[task_index] + comm_us};
  out.prev_ce = SimDuration{prev_ce_us};
  out.prev_max_ce = SimDuration{max_ce_us_};
  out.start_offset = SimDuration{start_us};
  out.end_offset = SimDuration{end_us};
  return true;
}

}  // namespace rtds::search
