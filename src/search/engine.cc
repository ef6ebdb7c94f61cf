#include "search/engine.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.h"
#include "search/partial_schedule.h"

namespace rtds::search {

namespace {

/// A feasible successor awaiting insertion into CL: the (task, worker) pair
/// and its sort key. Lower keys are higher priority (front of CL). Within
/// one successor group the key tuple is a strict total order (the last
/// significant component is the branch index or worker id, unique per
/// candidate), so any comparison sort produces the historical stable_sort
/// permutation. The successor's Assignment is built only if the search
/// enters it (SearchEngine::run's switch_to).
struct Candidate {
  std::int64_t key1{0};
  std::int64_t key2{0};
  std::uint32_t key3{0};
  std::uint32_t task{0};
  ProcessorId worker{0};

  bool operator<(const Candidate& o) const {
    return std::tie(key1, key2, key3) < std::tie(o.key1, o.key2, o.key3);
  }
};

/// Stable in-place insertion sort; O(k) on the nearly-sorted groups the
/// heuristics produce, and no temp-buffer allocation (std::stable_sort
/// allocates one per call in libstdc++). Larger groups go to std::sort
/// unless they are already in key order, as every sequence-oriented group
/// without the cost function is (its key is the branch index) — safe
/// because candidate keys are strictly totally ordered within a group, so
/// every comparison sort yields the same permutation.
inline void sort_candidates(std::vector<Candidate>& c) {
  if (c.size() > 48) {
    if (!std::is_sorted(c.begin(), c.end())) std::sort(c.begin(), c.end());
    return;
  }
  for (std::size_t i = 1; i < c.size(); ++i) {
    Candidate tmp = c[i];
    std::size_t j = i;
    for (; j > 0 && tmp < c[j - 1]; --j) c[j] = c[j - 1];
    c[j] = tmp;
  }
}

/// Computes the CL sort key of the feasible successor (task -> worker) at
/// the current CPS. `a` is its evaluation, read by every key but the
/// branch index of a sequence-oriented search without the cost function.
inline Candidate make_candidate(const SearchConfig& config,
                                const PartialSchedule& ps, std::uint32_t task,
                                ProcessorId worker, const Assignment& a,
                                std::uint32_t branch_index) {
  Candidate c;
  c.task = task;
  c.worker = worker;
  if (config.use_load_balance_cost) {
    // Resulting CE of the extended schedule (Sec. 4.4), tie-broken by the
    // task's own completion and the branch order.
    c.key1 = max_duration(ps.max_ce(), a.end_offset).us;
    c.key2 = a.end_offset.us;
    c.key3 = branch_index;
  } else if (config.representation == Representation::kAssignmentOriented) {
    switch (config.processor_order) {
      case ProcessorOrder::kIndexOrder:
        c.key1 = worker;
        break;
      case ProcessorOrder::kMinEndOffset:
        c.key1 = a.end_offset.us;
        c.key2 = worker;
        break;
      case ProcessorOrder::kMinCommCost:
        c.key1 = a.exec_cost.us - ps.processing_us(task);
        c.key2 = a.end_offset.us;
        c.key3 = worker;
        break;
    }
  } else {
    // Sequence-oriented: tasks were generated in heuristic order already.
    c.key1 = branch_index;
  }
  return c;
}

/// One expansion of the vertex `ps` currently ends at. Fills `out` with the
/// sorted feasible successors. `level_order` and `task_ids` are
/// caller-owned scratch (reused across calls; task_ids holds the lanes of
/// the task-word kernel).
///
/// This is the exact budget-interleaved successor generation: every
/// generated vertex (feasible or not) charges the budget, unplaceable tasks
/// charge min(m, budget_left) in bulk, mid-loop budget death sets
/// budget_exhausted, and max_successors caps the group.
///
/// An assignment-oriented expansion either bulk-charges a task no worker
/// can take or evaluates it on each worker with evaluate_fast. A
/// sequence-oriented one tests a whole unassigned-bitset word against the
/// level's worker at once (PartialSchedule::feasible_tasks_mask) when the
/// result provably equals the scalar loop's, accounting included: the batch
/// is tasks_mask_eligible, no max_successors cap applies and budget_left
/// covers the word's popcount. Outside those gates the scalar loop runs, so
/// SearchResults are bit-identical either way.
inline void expand_vertex(const SearchConfig& config, PartialSchedule& ps,
                          std::uint32_t m, std::uint64_t& budget_left,
                          SearchStats& stats, std::vector<Candidate>& out,
                          std::vector<ProcessorId>& level_order,
                          std::vector<std::uint32_t>& task_ids) {
  ++stats.expansions;
  out.clear();
  const std::uint32_t n = ps.batch_size();
  const std::uint32_t depth = ps.depth();

  if (config.representation == Representation::kAssignmentOriented) {
    // Select the next task by the (static) task-order heuristic, branch
    // over every processor (Fig. 2). Tasks with no feasible placement
    // are skipped (see SearchConfig::skip_unplaceable_tasks) — their
    // infeasibility holds for the whole subtree. So the scan resumes at
    // the position of the task this vertex assigned: the expansion that
    // generated it stopped at the first task with a feasible successor,
    // and every task before it is assigned on this path or unplaceable.
    //
    // Queue offsets are fixed during one expansion, so min_ce is hoisted
    // and feeds the bulk lower-bound test: when even the least-loaded
    // worker cannot meet the deadline, all m placements are infeasible
    // and the budget is charged in one step (identical accounting to
    // evaluating each) without touching the queues.
    const SimDuration lo = ps.min_ce();
    std::uint32_t scan =
        depth == 0 ? 0 : ps.pos_of(ps.path().back().task_index);
    while (scan < n) {
      // Find the next unassigned task at or after `scan`.
      scan = ps.first_unassigned_at_or_after(scan);
      if (scan == n) break;
      const std::uint32_t task = ps.task_at(scan);
      if (ps.task_unplaceable(task, lo)) {
        const std::uint64_t charged = std::min<std::uint64_t>(m, budget_left);
        budget_left -= charged;
        stats.vertices_generated += charged;
        if (charged < m) stats.budget_exhausted = true;
      } else {
        Assignment a;
        for (std::uint32_t k = 0; k < m; ++k) {
          if (budget_left == 0) {
            stats.budget_exhausted = true;
            break;
          }
          --budget_left;
          ++stats.vertices_generated;
          if (ps.evaluate_fast(task, k, a)) {
            out.push_back(make_candidate(config, ps, task, k, a, k));
            if (config.max_successors != 0 &&
                out.size() >= config.max_successors) {
              break;
            }
          }
        }
      }
      if (!out.empty() || stats.budget_exhausted ||
          !config.skip_unplaceable_tasks) {
        break;
      }
      ++scan;  // task unplaceable in this whole subtree: skip it
    }
  } else {
    // Select the level's processor (round-robin per Fig. 1, or the
    // least-loaded-first heuristic the paper allows), branch over every
    // unassigned task in heuristic order. When the level's processor
    // admits no feasible task, skip_saturated_processors moves on to the
    // next processor in the same order (every evaluation still charged).
    level_order.resize(m);
    for (std::uint32_t k = 0; k < m; ++k) {
      level_order[k] = (depth + k) % m;
    }
    if (config.level_processor_order == LevelProcessorOrder::kLeastLoaded) {
      // Stable insertion sort (m is small; no stable_sort temp buffer).
      for (std::uint32_t i = 1; i < m; ++i) {
        const ProcessorId tmp = level_order[i];
        std::uint32_t j = i;
        for (; j > 0 && ps.ce(tmp) < ps.ce(level_order[j - 1]); --j) {
          level_order[j] = level_order[j - 1];
        }
        level_order[j] = tmp;
      }
    }
    const std::uint32_t max_rotations =
        config.skip_saturated_processors ? m : 1;
    const bool batchable =
        config.max_successors == 0 && ps.tasks_mask_eligible();
    const std::vector<std::uint64_t>& words = ps.unassigned_words();
    for (std::uint32_t rot = 0; rot < max_rotations; ++rot) {
      const ProcessorId worker = level_order[rot];
      std::uint32_t branch = 0;
      Assignment a;
      bool stop = false;
      // Iterate unassigned tasks in consideration order straight off the
      // bitset words (set bit = unassigned position).
      for (std::size_t w = 0; w < words.size() && !stop; ++w) {
        std::uint64_t bits = words[w];
        if (bits == 0) continue;
        const auto count =
            static_cast<std::uint32_t>(std::popcount(bits));
        if (batchable && budget_left >= count) {
          // Batched Fig. 4 test for this whole bitset word against the
          // level's worker: up to 64 candidate tasks per kernel call. The
          // word is charged whole and no cap applies, so accounting matches
          // the interleaved loop exactly; the j-th set bit carries branch
          // index branch+j, exactly what the scalar loop would have
          // assigned it.
          task_ids.clear();
          std::uint64_t scan_bits = bits;
          while (scan_bits != 0) {
            const auto pos = static_cast<std::uint32_t>(
                (w << 6) + std::uint32_t(std::countr_zero(scan_bits)));
            scan_bits &= scan_bits - 1;
            task_ids.push_back(ps.task_at(pos));
          }
          budget_left -= count;
          stats.vertices_generated += count;
          std::uint64_t feasible =
              ps.feasible_tasks_mask(worker, task_ids.data(), count);
          while (feasible != 0) {
            const auto j =
                static_cast<std::uint32_t>(std::countr_zero(feasible));
            feasible &= feasible - 1;
            // Only the cost function's key reads the evaluation; the
            // branch index does not.
            if (config.use_load_balance_cost) {
              const bool ok = ps.evaluate_fast(task_ids[j], worker, a);
              RTDS_ASSERT(ok);
              (void)ok;
            }
            out.push_back(make_candidate(config, ps, task_ids[j], worker, a,
                                         branch + j));
          }
          branch += count;
          continue;
        }
        while (bits != 0) {
          const auto pos = static_cast<std::uint32_t>(
              (w << 6) + std::uint32_t(std::countr_zero(bits)));
          bits &= bits - 1;
          const std::uint32_t i = ps.task_at(pos);
          if (budget_left == 0) {
            stats.budget_exhausted = true;
            stop = true;
            break;
          }
          --budget_left;
          ++stats.vertices_generated;
          if (ps.evaluate_fast(i, worker, a)) {
            out.push_back(make_candidate(config, ps, i, worker, a, branch));
            if (config.max_successors != 0 &&
                out.size() >= config.max_successors) {
              stop = true;
              break;
            }
          }
          ++branch;
        }
      }
      if (!out.empty() || stats.budget_exhausted) break;
    }
  }

  sort_candidates(out);
}

/// A generated vertex kept in the search arena: the (task, worker) pair it
/// adds to its parent's path, not its Assignment, which switch_to evaluates
/// when the search enters the vertex. 32-bit fields serve every batch up to
/// kMaxBatchTasks.
struct Node {
  std::int32_t parent{-1};  ///< arena index, or -1 for children of the root
  std::uint32_t depth{0};   ///< number of assignments on the path to here
  std::uint32_t task{0};
  ProcessorId worker{0};
};

static_assert(sizeof(Node) == 16);

/// Bound on the workspace a thread keeps between runs: a million-task run
/// can legitimately grow the arena and the candidate list to hundreds of
/// MB each, which must not stay captive on a long-lived backend thread once
/// the phase is over.
constexpr std::size_t kRetainBytes = std::size_t{64} << 20;

/// Growable pooled node arena: fixed-size chunks, never a realloc-copy, so
/// a million-node run does not copy its nodes while it grows, and clear()
/// retains the chunks for the next run (steady-state allocation-free).
class NodeArena {
 public:
  static constexpr std::uint32_t kChunkShift = 14;  // 16384 nodes per chunk
  static constexpr std::uint32_t kChunkNodes = 1u << kChunkShift;

  [[nodiscard]] std::size_t size() const { return size_; }
  void clear() { size_ = 0; }

  Node& emplace_back() {
    // Arena indices travel as int32 (node ids, CL entries).
    RTDS_REQUIRE(size_ < (std::size_t{1} << 31),
                 "SearchEngine: node arena above 2^31 nodes");
    const std::size_t c = size_ >> kChunkShift;
    if (c == chunks_.size()) {
      chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    }
    return chunks_[c][size_++ & (kChunkNodes - 1)];
  }

  [[nodiscard]] Node& operator[](std::size_t i) {
    return chunks_[i >> kChunkShift][i & (kChunkNodes - 1)];
  }
  [[nodiscard]] const Node& operator[](std::size_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkNodes - 1)];
  }

  [[nodiscard]] std::size_t capacity_bytes() const {
    return chunks_.size() * (std::size_t{kChunkNodes} * sizeof(Node));
  }

 private:
  std::vector<std::unique_ptr<Node[]>> chunks_;
  std::size_t size_{0};
};

/// The candidate list CL over caller-owned storage. Depth-first consumes it
/// as a stack of node ids (successor groups are pushed best-on-top, Sec.
/// 4.1); best-first is a 4-ary min-heap on (k1, k2, k3, seq) — seq makes
/// the order strictly total, so the pop sequence is independent of heap
/// shape and identical to the historical std::push_heap/pop_heap binary
/// heap (FIFO among key-equal entries).
class CandidateList {
 public:
  struct Entry {
    std::int64_t k1;
    std::int64_t k2;
    std::uint32_t k3;
    std::int32_t node;
    std::uint64_t seq;
  };
  static_assert(sizeof(Entry) == 32);

  CandidateList(SearchStrategy strategy, std::vector<std::int32_t>& stack,
                std::vector<Entry>& heap)
      : best_first_(strategy == SearchStrategy::kBestFirst),
        stack_(stack),
        heap_(heap) {
    stack_.clear();
    heap_.clear();
  }

  [[nodiscard]] bool empty() const {
    return best_first_ ? heap_.empty() : stack_.empty();
  }

  /// Depth-first callers must push a successor group in reverse priority
  /// order (worst first) so the best ends on top.
  void push(const Candidate& c, std::int32_t node) {
    if (!best_first_) {
      stack_.push_back(node);
      return;
    }
    heap_.push_back(Entry{c.key1, c.key2, c.key3, node, seq_++});
    sift_up(heap_.size() - 1);
  }

  std::int32_t pop() {
    RTDS_ASSERT(!empty());
    if (!best_first_) {
      const std::int32_t node = stack_.back();
      stack_.pop_back();
      return node;
    }
    const std::int32_t node = heap_.front().node;
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return node;
  }

 private:
  static bool less(const Entry& a, const Entry& b) {
    return std::tie(a.k1, a.k2, a.k3, a.seq) <
           std::tie(b.k1, b.k2, b.k3, b.seq);
  }

  void sift_up(std::size_t i) {
    Entry e = heap_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!less(e, heap_[parent])) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = e;
  }

  void sift_down(std::size_t i) {
    const std::size_t size = heap_.size();
    Entry e = heap_[i];
    while (true) {
      const std::size_t first_child = 4 * i + 1;
      if (first_child >= size) break;
      const std::size_t last_child = std::min(first_child + 4, size);
      std::size_t best = first_child;
      for (std::size_t c = first_child + 1; c < last_child; ++c) {
        if (less(heap_[c], heap_[best])) best = c;
      }
      if (!less(heap_[best], e)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = e;
  }

  bool best_first_;
  std::uint64_t seq_{0};
  std::vector<std::int32_t>& stack_;
  std::vector<Entry>& heap_;
};

/// Per-thread scratch buffers reused across run() calls so a run allocates
/// nothing but its returned schedule once the capacities have grown to the
/// largest batch seen (capacity is retained by clear()/reset(); the arena
/// pools its chunks). A run that leaves more than kRetainBytes releases it
/// all but the counters. thread_local keeps the engine safely shareable
/// across backend threads.
struct Workspace {
  /// The consideration order of the snapshot's root under `order_kind`.
  std::vector<std::uint32_t> order;
  /// The sort kind `order` ranks the snapshot's root by; empty when it
  /// ranks none (an identity-order root, a released workspace, or a run
  /// that failed between building the order and snapshotting its root).
  std::optional<TaskOrder> order_kind;
  /// Sort keys of the batch being ordered, and the scratch build_order
  /// uses in turn as its match map, sort buffer and merge output.
  std::vector<std::int64_t> order_keys;
  std::vector<std::uint32_t> order_scratch;
  /// The search snapshot, reset() for every run (constructed by the first).
  std::optional<PartialSchedule> schedule;
  NodeArena nodes;
  std::vector<Candidate> candidates;
  std::vector<std::int32_t> cl_stack;
  std::vector<CandidateList::Entry> cl_heap;
  std::vector<tasks::ProcessorId> level_order;
  std::vector<std::uint32_t> task_ids;
  std::vector<std::int32_t> chain;
  // The thread's counters: a released workspace keeps them.
  std::size_t peak_bytes{0};
  OrderBuilds order_builds;
};

Workspace& workspace() {
  static thread_local Workspace ws;
  return ws;
}

std::size_t workspace_bytes(const Workspace& ws) {
  const auto bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return ws.nodes.capacity_bytes() +
         (ws.schedule ? ws.schedule->footprint_bytes() : 0) +
         bytes(ws.order) + bytes(ws.order_keys) + bytes(ws.order_scratch) +
         bytes(ws.candidates) + bytes(ws.cl_stack) + bytes(ws.cl_heap) +
         bytes(ws.level_order) + bytes(ws.task_ids) + bytes(ws.chain);
}

/// EDF sorts by deadline. Slack ordering (d - t - p) is time-independent
/// within a phase: min-slack sorts by d - p.
std::int64_t order_key(const Task& t, TaskOrder kind) {
  return kind == TaskOrder::kEarliestDeadline ? t.deadline.us
                                              : (t.deadline - t.processing).us;
}

/// order_key of task j of the root `ps` holds, read back from its
/// delivery-relative constants.
std::int64_t root_key(const PartialSchedule& ps, std::uint32_t j,
                      TaskOrder kind) {
  const std::int64_t deadline = ps.d_off_us(j) + ps.delivery_time().us;
  return kind == TaskOrder::kEarliestDeadline ? deadline
                                              : deadline - ps.processing_us(j);
}

/// Stable sort of the `n` positions at `idx` by key[idx[i]] that allocates
/// nothing once `merge` has grown: insertion-sorted runs of kRun tasks
/// (at most kRun tasks are one run), then bottom-up std::merge passes
/// between `idx` and `merge` (std::merge is stable). The same scheme as
/// libstdc++'s std::stable_sort, which allocates its buffer on every call.
void stable_sort_by_key(std::uint32_t* idx, std::size_t n,
                        const std::vector<std::int64_t>& key,
                        std::vector<std::uint32_t>& merge) {
  constexpr std::size_t kRun = 16;
  const auto less = [&key](std::uint32_t a, std::uint32_t b) {
    return key[a] < key[b];
  };
  for (std::size_t lo = 0; lo < n; lo += kRun) {
    const std::size_t hi = std::min(lo + kRun, n);
    for (std::size_t i = lo + 1; i < hi; ++i) {
      const std::uint32_t v = idx[i];
      std::size_t j = i;
      for (; j > lo && less(v, idx[j - 1]); --j) idx[j] = idx[j - 1];
      idx[j] = v;
    }
  }
  if (n <= kRun) return;
  merge.resize(n);
  std::uint32_t* from = idx;
  std::uint32_t* to = merge.data();
  for (std::size_t width = kRun; width < n; width *= 2) {
    for (std::size_t lo = 0; lo < n; lo += 2 * width) {
      const std::size_t mid = std::min(lo + width, n);
      const std::size_t hi = std::min(lo + 2 * width, n);
      std::merge(from + lo, from + mid, from + mid, from + hi, to + lo, less);
    }
    std::swap(from, to);
  }
  if (from != idx) std::copy(from, from + n, idx);
}

/// Fills ws.order with task_consideration_order(batch, kind), deriving it
/// from the root the workspace still holds when ws.order ranks that root by
/// the same kind. A stable order depends only on the key sequence: if the
/// keys of batch[0, L) embed, in order, in the root's key sequence, the
/// embedded root tasks rank among themselves exactly as batch[0, L) does.
/// So one filtering pass over the previous order ranks that prefix, only
/// batch[L, n) is sorted, and a merge that takes the prefix first on ties
/// (it precedes the tail in the batch) joins them. Reads the root's keys
/// from the snapshot, never a Task of its batch: the caller may have
/// mutated that very vector into `batch`.
void build_order(Workspace& ws, const std::vector<Task>& batch,
                 TaskOrder kind) {
  constexpr std::uint32_t kUnmatched =
      std::numeric_limits<std::uint32_t>::max();
  // Until the snapshot holds this batch's root, ws.order ranks no root.
  const std::optional<TaskOrder> ranked = std::exchange(ws.order_kind, {});
  const auto n = static_cast<std::uint32_t>(batch.size());
  std::vector<std::int64_t>& key = ws.order_keys;
  key.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) key[i] = order_key(batch[i], kind);

  std::vector<std::uint32_t>& order = ws.order;
  std::vector<std::uint32_t>& scratch = ws.order_scratch;
  std::uint32_t prefix = 0;
  if (ranked == kind) {
    // Greedy earliest matching finds the longest embeddable prefix in one
    // pass; scratch[j] is the batch task root task j stands for.
    RTDS_ASSERT(ws.schedule.has_value());
    const PartialSchedule& root = *ws.schedule;
    const std::uint32_t root_n = root.snapshot_size();
    RTDS_ASSERT(order.size() == root_n);
    scratch.assign(root_n, kUnmatched);
    for (std::uint32_t j = 0; j < root_n && prefix < n; ++j) {
      if (root_key(root, j, kind) == key[prefix]) scratch[j] = prefix++;
    }
    std::uint32_t kept = 0;
    for (const std::uint32_t j : order) {
      if (scratch[j] != kUnmatched) order[kept++] = scratch[j];
    }
    RTDS_ASSERT(kept == prefix);
  }
  order.resize(n);
  std::iota(order.begin() + prefix, order.end(), prefix);
  stable_sort_by_key(order.data() + prefix, n - prefix, key, scratch);
  if (prefix != 0 && prefix != n) {
    scratch.resize(n);
    std::merge(order.begin(), order.begin() + prefix, order.begin() + prefix,
               order.end(), scratch.begin(),
               [&key](std::uint32_t a, std::uint32_t b) {
                 return key[a] < key[b];
               });
    order.swap(scratch);
  }
  ws.order_builds.sorted += 1;
  ws.order_builds.tasks += n;
  ws.order_builds.reused += prefix;
}

}  // namespace

std::vector<std::uint32_t> task_consideration_order(
    const std::vector<Task>& batch, TaskOrder order) {
  std::vector<std::uint32_t> idx(batch.size());
  std::iota(idx.begin(), idx.end(), 0u);
  if (order != TaskOrder::kBatchOrder) {
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return order_key(batch[a], order) <
                              order_key(batch[b], order);
                     });
  }
  return idx;
}

std::size_t thread_workspace_bytes() { return workspace_bytes(workspace()); }

std::size_t thread_workspace_peak_bytes() { return workspace().peak_bytes; }

OrderBuilds thread_order_builds() { return workspace().order_builds; }

SearchEngine::SearchEngine(SearchConfig config) : config_(config) {}

SearchResult SearchEngine::run(const std::vector<Task>& batch,
                               const std::vector<SimDuration>& base_loads,
                               SimTime delivery_time,
                               const machine::Interconnect& net,
                               std::uint64_t vertex_budget) const {
  SearchResult result;
  if (batch.empty() || vertex_budget == 0) return result;
  RTDS_REQUIRE(batch.size() <= kMaxBatchTasks,
               "SearchEngine: phase batch above kMaxBatchTasks");

  Workspace& ws = workspace();
  const std::uint32_t m = net.num_workers();

  // kBatchOrder is the identity permutation, and so is any order of one
  // task: skip building (and chasing) the index vector entirely.
  const bool identity =
      config_.task_order == TaskOrder::kBatchOrder || batch.size() == 1;
  if (identity) {
    ws.order_kind.reset();
    ws.order_builds.identity += 1;
  } else {
    build_order(ws, batch, config_.task_order);
  }

  if (ws.schedule) {
    ws.schedule->reset(&batch, base_loads, delivery_time, &net);
  } else {
    ws.schedule.emplace(&batch, base_loads, delivery_time, &net);
  }
  PartialSchedule& ps = *ws.schedule;
  ps.set_consideration_order(identity ? nullptr : ws.order.data());
  if (!identity) ws.order_kind = config_.task_order;

  NodeArena& arena = ws.nodes;
  arena.clear();
  CandidateList cl(config_.strategy, ws.cl_stack, ws.cl_heap);

  SearchStats& stats = result.stats;
  std::uint64_t budget_left = vertex_budget;

  std::int32_t current = -1;  // arena index of the vertex CPS ends at
  std::int32_t best_node = -1;
  std::uint32_t best_depth = 0;
  SimDuration best_ce = SimDuration::max();

  const auto node_depth = [&](std::int32_t id) -> std::uint32_t {
    return id < 0 ? 0u : arena[std::size_t(id)].depth;
  };

  // Expands the current vertex (expand_vertex above): charges the budget,
  // collects sorted feasible successors, then registers them in the arena
  // and pushes them onto CL best-on-top.
  std::vector<Candidate>& candidates = ws.candidates;
  const auto expand_current = [&] {
    expand_vertex(config_, ps, m, budget_left, stats, candidates,
                  ws.level_order, ws.task_ids);
    // Push worst-first so the best candidate ends on top of the stack
    // (front of CL).
    const std::uint32_t depth = ps.depth() + 1;
    for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
      Node& node = arena.emplace_back();
      node.parent = current;
      node.depth = depth;
      node.task = it->task;
      node.worker = it->worker;
      cl.push(*it, static_cast<std::int32_t>(arena.size() - 1));
    }
  };

  // Switches CPS from `current` to arena vertex `target` (-1: the root) via
  // their lowest common ancestor, then enters the vertices from there down
  // to `target`: each is evaluated once its parent is pushed, the state it
  // was generated in.
  std::vector<std::int32_t>& chain = ws.chain;
  const auto switch_to = [&](std::int32_t target) {
    chain.clear();
    std::int32_t a = current;
    std::int32_t b = target;
    while (node_depth(b) > node_depth(a)) {
      chain.push_back(b);
      b = arena[std::size_t(b)].parent;
    }
    while (node_depth(a) > node_depth(b)) {
      ps.pop();
      a = arena[std::size_t(a)].parent;
    }
    while (a != b) {
      ps.pop();
      a = arena[std::size_t(a)].parent;
      chain.push_back(b);
      b = arena[std::size_t(b)].parent;
    }
    Assignment entered;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const Node& node = arena[std::size_t(*it)];
      const bool ok = ps.evaluate_fast(node.task, node.worker, entered);
      RTDS_ASSERT(ok);
      (void)ok;
      ps.push(entered);
    }
    current = target;
  };

  while (true) {
    if (budget_left == 0) {
      stats.budget_exhausted = true;
      break;
    }
    expand_current();
    if (cl.empty()) {
      if (!ps.complete()) stats.dead_end = true;
      break;
    }
    const std::int32_t next = cl.pop();
    if (arena[std::size_t(next)].parent != current) ++stats.backtracks;
    switch_to(next);

    if (ps.depth() > stats.max_depth) stats.max_depth = ps.depth();
    const bool deeper = ps.depth() > best_depth;
    const bool same_depth_better =
        ps.depth() == best_depth && ps.max_ce() < best_ce;
    if (best_node == -1 || deeper || same_depth_better) {
      best_node = current;
      best_depth = ps.depth();
      best_ce = ps.max_ce();
    }

    if (ps.complete()) {
      stats.reached_leaf = true;
      break;
    }
  }

  // Return the deepest (then best-balanced) vertex seen: CPS moves there
  // and its path is copied out once at its exact length — the run's only
  // allocation, and an empty one allocates nothing.
  switch_to(best_node);
  result.schedule.assign(ps.path().begin(), ps.path().end());

  const std::size_t bytes = workspace_bytes(ws);
  ws.peak_bytes = std::max(ws.peak_bytes, bytes);
  if (bytes > kRetainBytes) {
    // Release the snapshot with its order, the arena and every buffer; only
    // the thread's counters stay.
    Workspace released;
    released.peak_bytes = ws.peak_bytes;
    released.order_builds = ws.order_builds;
    ws = std::move(released);
  }
  return result;
}

}  // namespace rtds::search
