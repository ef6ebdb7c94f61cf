#include "search/engine.h"

#include <algorithm>
#include <bit>
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
/// sorted feasible successors. `level_order` is caller-owned scratch
/// (reused across calls).
///
/// This is the exact budget-interleaved successor generation: every
/// generated vertex (feasible or not) charges the budget, unplaceable tasks
/// charge min(m, budget_left) in bulk, mid-loop budget death sets
/// budget_exhausted, and max_successors caps the group.
///
/// An assignment-oriented expansion either bulk-charges a task no worker
/// can take or evaluates it on each worker with evaluate_fast. A
/// sequence-oriented one tests a whole unassigned-bitset word against the
/// level's worker at once (PartialSchedule::feasible_tasks_mask, which reads
/// the word's lanes where the set keeps them) when the
/// result provably equals the scalar loop's, accounting included: the batch
/// is tasks_mask_eligible, no max_successors cap applies and budget_left
/// covers the word's popcount. Outside those gates the scalar loop runs, so
/// SearchResults are bit-identical either way.
inline void expand_vertex(const SearchConfig& config, PartialSchedule& ps,
                          std::uint32_t m, std::uint64_t& budget_left,
                          SearchStats& stats, std::vector<Candidate>& out,
                          std::vector<ProcessorId>& level_order) {
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
    // Set positions are consideration-order positions, so a task is its
    // own position.
    const SimDuration lo = ps.min_ce();
    std::uint32_t task = depth == 0 ? 0 : ps.path().back().task_index;
    while (task < n) {
      // Find the next unassigned task at or after `task`.
      task = ps.first_unassigned_at_or_after(task);
      if (task == n) break;
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
      ++task;  // task unplaceable in this whole subtree: skip it
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
          // level's worker: up to 64 candidate tasks per kernel call, read
          // in place. The word is charged whole and no cap applies, so
          // accounting matches the interleaved loop exactly; the set bit
          // at lane b carries branch index branch + (set bits below b),
          // exactly what the scalar loop would have assigned it.
          budget_left -= count;
          stats.vertices_generated += count;
          std::uint64_t feasible = ps.feasible_tasks_mask(worker, w);
          while (feasible != 0) {
            const auto b =
                static_cast<std::uint32_t>(std::countr_zero(feasible));
            feasible &= feasible - 1;
            const auto task = static_cast<std::uint32_t>((w << 6) + b);
            const auto below = static_cast<std::uint32_t>(
                std::popcount(bits & ((std::uint64_t{1} << b) - 1)));
            // Only the cost function's key reads the evaluation; the
            // branch index does not.
            if (config.use_load_balance_cost) {
              const bool ok = ps.evaluate_fast(task, worker, a);
              RTDS_ASSERT(ok);
              (void)ok;
            }
            out.push_back(
                make_candidate(config, ps, task, worker, a, branch + below));
          }
          branch += count;
          continue;
        }
        while (bits != 0) {
          const auto i = static_cast<std::uint32_t>(
              (w << 6) + std::uint32_t(std::countr_zero(bits)));
          bits &= bits - 1;
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
/// largest set seen (capacity is retained by clear()/reset(); the arena
/// pools its chunks). A run that leaves more than kRetainBytes releases it
/// all but the counter. thread_local keeps the engine safely shareable
/// across backend threads.
struct Workspace {
  /// The search state, reset() for every run (constructed by the first).
  std::optional<PartialSchedule> schedule;
  /// The set the vector adapter builds from its batch.
  tasks::Batch adapter;
  NodeArena nodes;
  std::vector<Candidate> candidates;
  std::vector<std::int32_t> cl_stack;
  std::vector<CandidateList::Entry> cl_heap;
  std::vector<tasks::ProcessorId> level_order;
  std::vector<std::int32_t> chain;
  // The thread's counter: a released workspace keeps it.
  std::size_t peak_bytes{0};
};

Workspace& workspace() {
  static thread_local Workspace ws;
  return ws;
}

std::size_t workspace_bytes(const Workspace& ws) {
  const auto bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return ws.nodes.capacity_bytes() +
         (ws.schedule ? ws.schedule->footprint_bytes() : 0) +
         ws.adapter.footprint_bytes() + bytes(ws.candidates) +
         bytes(ws.cl_stack) + bytes(ws.cl_heap) + bytes(ws.level_order) +
         bytes(ws.chain);
}

/// Records the run's workspace in the thread's peak and releases all of it
/// but the counter when it grew past kRetainBytes.
void retain_or_release(Workspace& ws) {
  const std::size_t bytes = workspace_bytes(ws);
  ws.peak_bytes = std::max(ws.peak_bytes, bytes);
  if (bytes > kRetainBytes) {
    Workspace released;
    released.peak_bytes = ws.peak_bytes;
    ws = std::move(released);
  }
}

/// The search: walks the tree over `set` (non-empty, in config.task_order)
/// and writes the chosen path and the stats into `result`. Both run()
/// entries end here.
void walk(const SearchConfig& config, Workspace& ws, const tasks::Batch& set,
          const std::vector<SimDuration>& base_loads, SimTime delivery_time,
          const machine::Interconnect& net, std::uint64_t vertex_budget,
          SearchResult& result) {
  const std::uint32_t m = net.num_workers();
  if (ws.schedule) {
    ws.schedule->reset(&set, base_loads, delivery_time, &net);
  } else {
    ws.schedule.emplace(&set, base_loads, delivery_time, &net);
  }
  PartialSchedule& ps = *ws.schedule;

  NodeArena& arena = ws.nodes;
  arena.clear();
  CandidateList cl(config.strategy, ws.cl_stack, ws.cl_heap);

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
    expand_vertex(config, ps, m, budget_left, stats, candidates,
                  ws.level_order);
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
}


}  // namespace

std::vector<std::uint32_t> task_consideration_order(
    const std::vector<Task>& batch, TaskOrder order) {
  std::vector<std::uint32_t> idx(batch.size());
  std::iota(idx.begin(), idx.end(), 0u);
  if (order != TaskOrder::kBatchOrder) {
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return tasks::consideration_key(batch[a], order) <
                              tasks::consideration_key(batch[b], order);
                     });
  }
  return idx;
}

std::size_t thread_workspace_bytes() { return workspace_bytes(workspace()); }

std::size_t thread_workspace_peak_bytes() { return workspace().peak_bytes; }

SearchEngine::SearchEngine(SearchConfig config) : config_(config) {}

SearchResult SearchEngine::run(const tasks::Batch& set,
                               const std::vector<SimDuration>& base_loads,
                               SimTime delivery_time,
                               const machine::Interconnect& net,
                               std::uint64_t vertex_budget) const {
  SearchResult result;
  if (set.empty() || vertex_budget == 0) return result;
  RTDS_REQUIRE(set.order() == config_.task_order,
               "SearchEngine: the set keeps another consideration order");
  RTDS_REQUIRE(set.size() <= kMaxBatchTasks,
               "SearchEngine: phase batch above kMaxBatchTasks");
  Workspace& ws = workspace();
  walk(config_, ws, set, base_loads, delivery_time, net, vertex_budget,
       result);
  retain_or_release(ws);
  return result;
}

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
  tasks::Batch& set = ws.adapter;
  set.reset(config_.task_order);
  set.merge_arrivals(batch);
  walk(config_, ws, set, base_loads, delivery_time, net, vertex_budget,
       result);
  // A fresh set numbers its arrivals 0, 1, ...: a task's arrival number is
  // its index in `batch`.
  for (Assignment& a : result.schedule) {
    a.task_index = static_cast<std::uint32_t>(set.sequence(a.task_index));
  }
  retain_or_release(ws);
  return result;
}

}  // namespace rtds::search
