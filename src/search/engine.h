// The scheduling-as-search engine (Sec. 3 and 4.1).
//
// Schedule construction is an incremental depth-first search in the
// task-space tree G. Vertices are task-to-processor assignments; a path from
// the root is a feasible partial schedule. The engine maintains:
//   * an arena of generated vertices, each stored as the (task, worker) pair
//     it adds to its parent's path (parent links give paths);
//   * the candidate list CL: feasible successors are sorted by
//     heuristic/cost value and added to the FRONT of CL; each iteration
//     removes the first vertex of CL and expands it (LIFO => depth-first,
//     with sorted-group insertion exactly as described in Sec. 4.1);
//   * the current partial schedule, kept in sync with the vertex being
//     expanded via lowest-common-ancestor path switching (backtracking).
//     Entering a vertex evaluates its pair at its parent's state, so a
//     vertex's Assignment is built only if the search enters it.
//
// The two search representations of Sec. 3:
//   * assignment-oriented (Fig. 2, used by RT-SADS): each level selects the
//     next TASK (by the task-order heuristic) and branches over all m
//     processors;
//   * sequence-oriented (Fig. 1, used by D-COLS): each level selects the
//     next PROCESSOR round-robin and branches over all unassigned tasks.
//
// Every *generated* vertex — feasible or not — consumes one unit of the
// phase's vertex budget, because generation includes evaluation and the
// feasibility test (Sec. 4.1). The budget is Q_s(j) divided by the
// per-vertex scheduling cost, which is how scheduling overhead is charged
// on the simulated clock.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "machine/interconnect.h"
#include "search/partial_schedule.h"
#include "tasks/batch.h"
#include "tasks/task.h"

namespace rtds::search {

/// Which search representation to use (Sec. 3).
enum class Representation {
  kAssignmentOriented,  ///< Fig. 2 — RT-SADS
  kSequenceOriented,    ///< Fig. 1 — D-COLS
};

/// How the candidate list is consumed. The paper's algorithms are
/// depth-first (sorted successors are added to the FRONT of CL); the
/// best-first alternative always expands the globally cheapest candidate.
/// Because the load-balancing cost CE only grows with depth, best-first
/// degenerates toward breadth-first under a vertex budget — the ablation
/// ABL-STRAT quantifies why the paper is right to dive.
enum class SearchStrategy {
  kDepthFirst,
  kBestFirst,
};

/// Order in which tasks are considered (the task-selection heuristic). A
/// pending set keeps its tasks in it (tasks/batch.h).
using tasks::TaskOrder;

/// How the sequence-oriented representation picks the processor for each
/// level. The paper shows round-robin in Fig. 1 but notes "a heuristic
/// function can be applied to affect this order".
enum class LevelProcessorOrder {
  kRoundRobin,   ///< P_(depth mod m), Fig. 1
  kLeastLoaded,  ///< smallest current ce_k first — a load-aware D-COLS
};

/// Order in which processors are considered for one task
/// (assignment-oriented successor sorting, when the load-balancing cost
/// function is disabled).
enum class ProcessorOrder {
  kIndexOrder,    ///< P_0, P_1, ... — no heuristic
  kMinEndOffset,  ///< earliest completion of the task (greedy)
  kMinCommCost,   ///< affine processors first, then earliest completion
};

/// Engine configuration. Defaults correspond to RT-SADS as evaluated in the
/// paper: assignment-oriented, EDF task order, load-balancing cost function
/// enabled.
struct SearchConfig {
  Representation representation{Representation::kAssignmentOriented};
  SearchStrategy strategy{SearchStrategy::kDepthFirst};
  TaskOrder task_order{TaskOrder::kEarliestDeadline};
  ProcessorOrder processor_order{ProcessorOrder::kMinEndOffset};

  /// When true, feasible successors are sorted by the resulting
  /// load-balancing cost CE (Sec. 4.4), tie-broken by end offset. When
  /// false, `processor_order` (assignment-oriented) or `task_order`
  /// (sequence-oriented) alone decides.
  bool use_load_balance_cost{true};

  /// Pruning heuristic the paper lists for dynamic algorithms (Sec. 3): a
  /// cap on successors generated per expansion (0 = unlimited). With 1, an
  /// assignment-oriented depth-first search in EDF order is EDF first-fit
  /// (the `edf_ff` baseline): it keeps the first feasible processor in
  /// index order and never backtracks.
  std::uint32_t max_successors{0};

  /// Assignment-oriented only. When true (default), a task whose every
  /// processor placement is infeasible at the current vertex is skipped and
  /// the next task in heuristic order is selected instead of declaring the
  /// level a dead-end. Skipping is sound and cheap to inherit: queue
  /// offsets ce_k only grow along a path, so a task infeasible on every
  /// worker stays infeasible in the entire subtree and is never
  /// re-evaluated below the vertex that proved it (the generated vertices
  /// are still charged against the budget once). Without this, one stuck
  /// tight task would stall whole scheduling phases. Disable to get the
  /// strict reading of the paper's Sec. 3 expansion rule (ablation ABL-H).
  bool skip_unplaceable_tasks{true};

  /// Sequence-oriented only: the level's processor selection rule.
  LevelProcessorOrder level_processor_order{LevelProcessorOrder::kRoundRobin};

  /// Sequence-oriented only. When true (default), a level whose round-robin
  /// processor admits no feasible task advances to the next processor
  /// (trying at most m processors per level, all evaluations charged)
  /// instead of dead-ending the branch. The paper notes the processor order
  /// "can be affected by a heuristic function"; a continuous scheduler that
  /// dies forever once P_0 saturates would be a strawman comparator.
  /// Disable for the strict round-robin reading (ablation ABL-H).
  bool skip_saturated_processors{true};
};

/// Counters describing one search run.
struct SearchStats {
  std::uint64_t vertices_generated{0};
  std::uint64_t expansions{0};
  std::uint64_t backtracks{0};
  std::uint32_t max_depth{0};
  bool reached_leaf{false};
  bool dead_end{false};
  bool budget_exhausted{false};

  bool operator==(const SearchStats&) const = default;
};

/// Result of one scheduling-phase search: a feasible (partial or complete)
/// schedule plus statistics.
struct SearchResult {
  std::vector<Assignment> schedule;  ///< path order
  SearchStats stats;
};

/// Hard structural ceiling on one phase batch, checked with InvalidArgument
/// (it bounds the 32-bit depth and task fields of the 16-byte search node —
/// docs/ARCHITECTURE.md, "Search hot path").
inline constexpr std::uint32_t kMaxBatchTasks = 1u << 30;

/// Bytes currently retained by the calling thread's search workspace: the
/// pooled node arena, the reused PartialSchedule, the set the vector
/// adapter builds, and every scratch buffer (candidates, the depth-first
/// CL's id stack and the best-first CL's heap, level order, LCA chain).
/// The bound is on their sum: a run that leaves more than 64 MB releases
/// the whole workspace, so this is at most 64 MB between runs. For the
/// bench memory column; cheap enough to call between runs.
[[nodiscard]] std::size_t thread_workspace_bytes();

/// High-water mark of thread_workspace_bytes() on the calling thread (an
/// oversized run releases the workspace, so the current value can
/// understate what a big batch actually used).
[[nodiscard]] std::size_t thread_workspace_peak_bytes();

/// Depth-first search over the task-space tree. One engine can be reused
/// across phases and threads; a run's answer depends only on its arguments.
class SearchEngine {
 public:
  explicit SearchEngine(SearchConfig config);

  [[nodiscard]] const SearchConfig& config() const { return config_; }

  /// Runs one scheduling phase's search over the pending set `set`, read
  /// in place.
  ///
  /// `set`            — Batch(j), kept in config().task_order
  ///                    (InvalidArgument otherwise); at most kMaxBatchTasks
  ///                    tasks (InvalidArgument beyond). It must not change
  ///                    during the call;
  /// `base_loads`     — per-worker residual load at delivery time,
  ///                    max(0, Load_k(j-1) - Q_s(j));
  /// `delivery_time`  — t_s + Q_s(j);
  /// `net`            — interconnect pricing c_lk;
  /// `vertex_budget`  — maximum number of vertices to generate (>= 1).
  ///
  /// Returns the path to the deepest vertex the search entered (more tasks
  /// scheduled this phase) and, among equally deep ones, the first entered
  /// with the lowest CE — whether the search stopped at a leaf, a dead end
  /// or the budget. Task indices are positions in `set`.
  ///
  /// The tree is searched from scratch: the set supplies the root's tasks,
  /// columns and consideration order, so starting a search sorts nothing
  /// and copies nothing per task (docs/ARCHITECTURE.md, "The pending set").
  ///
  /// Thread-safe: per-thread scratch buffers are reused across calls — the
  /// PartialSchedule, the candidate list, and a node arena that grows in
  /// pooled chunks. Once they have grown to the largest set seen, a run's
  /// only heap allocation is the returned schedule: the chosen vertex's
  /// path, copied out at its exact length (none when it is empty). A
  /// workspace grown past 64 MB is released whole after its run, and the
  /// next run grows it again. Tested by
  /// tests/alloc/steady_state_alloc_test.cc; docs/ARCHITECTURE.md, "Search
  /// hot path".
  ///
  /// Every run searches. The phases that would repeat an empty,
  /// unexhausted search are the pipeline's to skip
  /// (sched::PhaseAlgorithm::futile_answer_persists).
  [[nodiscard]] SearchResult run(const tasks::Batch& set,
                                 const std::vector<SimDuration>& base_loads,
                                 SimTime delivery_time,
                                 const machine::Interconnect& net,
                                 std::uint64_t vertex_budget) const;

  /// The same search over a vector of tasks: a thin adapter that builds a
  /// set of them in config().task_order in the thread's workspace, runs
  /// the search above on it and reports task indices into `batch`. Its
  /// answer equals run(tasks::Batch(batch, config().task_order), ...) with
  /// each position mapped to the index of its task in `batch`. Like the
  /// in-place run, once the workspace has grown it allocates only the
  /// returned schedule.
  [[nodiscard]] SearchResult run(const std::vector<Task>& batch,
                                 const std::vector<SimDuration>& base_loads,
                                 SimTime delivery_time,
                                 const machine::Interconnect& net,
                                 std::uint64_t vertex_budget) const;

 private:
  SearchConfig config_;
};

/// The static task consideration order of a batch under the given
/// heuristic (deadlines and slacks do not change during a phase, so the
/// order is computed once): batch positions stable-sorted by deadline
/// (EDF) or by d - p (min-slack), so ties keep batch order. kBatchOrder is
/// the identity. The greedy baselines and the reference engine use it, and
/// it is the specification the order a pending set keeps must meet.
std::vector<std::uint32_t> task_consideration_order(
    const std::vector<Task>& batch, TaskOrder order);

}  // namespace rtds::search
