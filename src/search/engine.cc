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
/// enters it (walk_depth_first, walk_best_first). A depth-first D-COLS
/// group builds no Candidate (expand_vertex).
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

/// A successor in a depth-first group: the (task, worker) pair it adds to
/// its group's parent path. The walk evaluates it again only if it enters
/// it.
struct Member {
  std::uint32_t task{0};
  ProcessorId worker{0};
};

/// Stable in-place insertion sort; O(k) on the nearly-sorted groups the
/// heuristics produce, and no temp-buffer allocation (std::stable_sort
/// allocates one per call in libstdc++). Larger groups go to std::sort
/// unless they are already in key order, as every sequence-oriented group
/// without the cost function is (its key is the branch index; only
/// best-first builds Candidates for it) — safe because candidate keys are
/// strictly totally ordered within a group, so every comparison sort
/// yields the same permutation.
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
/// sorted feasible successors, except where the group is D-COLS's:
/// sequence-oriented without the cost function, its key is the branch
/// index, so the successors come in priority order. A depth-first search
/// then appends them to `members` as (task, worker) pairs, builds no
/// Candidate and leaves `out` empty. `level_order` is caller-owned scratch
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
/// the word's 64 adjacent tasks of the set in place) when the
/// result provably equals the scalar loop's, accounting included: the batch
/// is tasks_mask_eligible, no max_successors cap applies and budget_left
/// covers the word's popcount. Outside those gates the scalar loop runs, so
/// SearchResults are bit-identical either way.
inline void expand_vertex(const SearchConfig& config, PartialSchedule& ps,
                          std::uint32_t m, std::uint64_t& budget_left,
                          SearchStats& stats, std::vector<Candidate>& out,
                          std::vector<Member>& members,
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
    const bool direct = config.strategy == SearchStrategy::kDepthFirst &&
                        !config.use_load_balance_cost;
    std::size_t found = 0;  // successors in the group so far
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
          // exactly what the scalar loop would have assigned it. A direct
          // group takes the bits in that order and leaves none for the
          // Candidate loop.
          budget_left -= count;
          stats.vertices_generated += count;
          std::uint64_t feasible = ps.feasible_tasks_mask(worker, w);
          found += static_cast<std::size_t>(std::popcount(feasible));
          if (direct) {
            for (; feasible != 0; feasible &= feasible - 1) {
              members.push_back(Member{
                  static_cast<std::uint32_t>(
                      (w << 6) + std::uint32_t(std::countr_zero(feasible))),
                  worker});
            }
          }
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
            if (direct) {
              members.push_back(Member{i, worker});
            } else {
              out.push_back(make_candidate(config, ps, i, worker, a, branch));
            }
            ++found;
            if (config.max_successors != 0 &&
                found >= config.max_successors) {
              stop = true;
              break;
            }
          }
          ++branch;
        }
      }
      if (found != 0 || stats.budget_exhausted) break;
    }
  }

  sort_candidates(out);
}

/// A vertex kept in the best-first arena: the (task, worker) pair it adds
/// to its parent's path, not its Assignment, which switch_to evaluates when
/// the search enters the vertex. Best-first makes one for every successor
/// it generates, since its heap holds arena ids; the depth-first walk keeps
/// no arena (walk_depth_first). 32-bit fields serve every batch up to
/// kMaxBatchTasks.
struct Node {
  std::int32_t parent{-1};  ///< arena index, or -1 for children of the root
  std::uint32_t depth{0};   ///< number of assignments on the path to here
  std::uint32_t task{0};
  ProcessorId worker{0};
};

static_assert(sizeof(Node) == 16);
static_assert(sizeof(Member) == 8);

/// Arena node ids and group member indices travel as 32-bit values.
constexpr std::size_t kMaxIndex = std::size_t{1} << 31;

/// Growable pooled node arena: fixed-size chunks, never a realloc-copy, so
/// a million-node run does not copy its nodes while it grows, and clear()
/// retains the chunks for the next run (steady-state allocation-free).
class NodeArena {
 public:
  static constexpr std::uint32_t kChunkShift = 14;  // 16384 nodes per chunk
  static constexpr std::uint32_t kChunkNodes = 1u << kChunkShift;

  [[nodiscard]] std::size_t size() const { return size_; }
  void clear() { size_ = 0; }

  /// Appends a node and returns its id.
  std::int32_t add(std::int32_t parent, std::uint32_t depth,
                   std::uint32_t task, ProcessorId worker) {
    RTDS_REQUIRE(size_ < kMaxIndex, "SearchEngine: node arena above 2^31 nodes");
    const std::size_t c = size_ >> kChunkShift;
    if (c == chunks_.size()) {
      chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    }
    chunks_[c][size_ & (kChunkNodes - 1)] = Node{parent, depth, task, worker};
    return static_cast<std::int32_t>(size_++);
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

/// The depth-first candidate list CL over caller-owned storage: a stack of
/// successor groups, one per expansion that found any (Sec. 4.1 adds a
/// sorted group to the FRONT of CL). A group is its members' depth and its
/// members in priority order. All groups share one member array, of which
/// the top group's members are the tail, and `next` is the first member not
/// yet entered. A group leaves the stack with its last member, so each
/// group on it has one left.
///
/// A group needs no parent: every group on the stack was pushed by a vertex
/// on the current path, because the groups pushed after it were emptied
/// first. So its parent is the path's vertex at its depth - 1.
class GroupStack {
 public:
  struct Group {
    std::uint32_t depth;  ///< depth of its members
    std::uint32_t begin;  ///< its first member
    std::uint32_t next;   ///< its next member to enter
  };
  static_assert(sizeof(Group) == 12);

  /// The top group's next member, with the group's depth.
  struct Entry {
    Member member;
    std::uint32_t depth;
  };

  GroupStack(std::vector<Group>& groups, std::vector<Member>& members)
      : groups_(groups), members_(members) {
    groups_.clear();
    members_.clear();
  }

  [[nodiscard]] bool empty() const { return groups_.empty(); }

  /// Makes the members appended since `begin` the top group; an expansion
  /// that appended none pushes nothing.
  void push(std::uint32_t depth, std::size_t begin) {
    if (members_.size() == begin) return;
    RTDS_REQUIRE(members_.size() <= kMaxIndex,
                 "SearchEngine: successor groups above 2^31 members");
    const auto first = static_cast<std::uint32_t>(begin);
    groups_.push_back(Group{depth, first, first});
  }

  /// Takes the top group's next member: the best successor of the latest
  /// expansion that has one left.
  Entry pop() {
    RTDS_ASSERT(!empty());
    Group& top = groups_.back();
    RTDS_ASSERT(top.next < members_.size());
    const Entry e{members_[top.next], top.depth};
    if (++top.next == members_.size()) {
      members_.resize(top.begin);
      groups_.pop_back();
    }
    return e;
  }

 private:
  std::vector<Group>& groups_;
  std::vector<Member>& members_;
};

/// The best-first candidate list CL over caller-owned storage: a 4-ary
/// min-heap of arena nodes on (k1, k2, k3, seq) — seq makes the order
/// strictly total, so the pop sequence is independent of heap shape and
/// identical to the historical std::push_heap/pop_heap binary heap (FIFO
/// among key-equal entries).
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

  explicit CandidateList(std::vector<Entry>& heap) : heap_(heap) {
    heap_.clear();
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }

  void push(const Candidate& c, std::int32_t node) {
    heap_.push_back(Entry{c.key1, c.key2, c.key3, node, seq_++});
    sift_up(heap_.size() - 1);
  }

  std::int32_t pop() {
    RTDS_ASSERT(!empty());
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

  std::uint64_t seq_{0};
  std::vector<Entry>& heap_;
};

/// Per-thread scratch buffers reused across run() calls so a run allocates
/// nothing but its returned schedule once the capacities have grown to the
/// largest set seen (capacity is retained by clear()/reset(); the arena
/// pools its chunks). A run that leaves more than kWorkspaceRetainBytes
/// releases it all but the counter. thread_local keeps the engine safely
/// shareable across backend threads.
struct Workspace {
  /// The search state, reset() for every run (constructed by the first).
  std::optional<PartialSchedule> schedule;
  /// The set the vector adapter builds from its batch.
  tasks::Batch adapter;
  std::vector<Candidate> candidates;
  std::vector<tasks::ProcessorId> level_order;
  // Depth-first: CL's groups and their members, and the best vertex's path,
  // copied once the walk has unwound past it.
  std::vector<GroupStack::Group> cl_groups;
  std::vector<Member> cl_members;
  std::vector<Assignment> best_path;
  // Best-first: its vertices, CL's heap of them and the chain of a switch.
  NodeArena nodes;
  std::vector<CandidateList::Entry> cl_heap;
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
  return (ws.schedule ? ws.schedule->footprint_bytes() : 0) +
         ws.adapter.footprint_bytes() + bytes(ws.candidates) +
         bytes(ws.level_order) + bytes(ws.cl_groups) + bytes(ws.cl_members) +
         bytes(ws.best_path) + ws.nodes.capacity_bytes() + bytes(ws.cl_heap) +
         bytes(ws.chain);
}

/// Records the run's workspace in the thread's peak and releases all of it
/// but the counter when it grew past kWorkspaceRetainBytes.
void retain_or_release(Workspace& ws) {
  const std::size_t bytes = workspace_bytes(ws);
  ws.peak_bytes = std::max(ws.peak_bytes, bytes);
  if (bytes > kWorkspaceRetainBytes) {
    Workspace released;
    released.peak_bytes = ws.peak_bytes;
    ws = std::move(released);
  }
}

/// The vertex a run returns: the deepest one the search entered (more
/// tasks scheduled this phase), then the one with the lowest CE, then the
/// first entered. Depth 0 is the root, which stands until the search enters
/// a vertex.
struct BestVertex {
  std::uint32_t depth{0};
  SimDuration ce{SimDuration::max()};

  /// Makes the vertex `ps` ends at the best when it beats it, and says
  /// whether it did.
  bool take(const PartialSchedule& ps) {
    const bool deeper = ps.depth() > depth;
    const bool same_depth_better = ps.depth() == depth && ps.max_ce() < ce;
    if (!deeper && !same_depth_better) return false;
    depth = ps.depth();
    ce = ps.max_ce();
    return true;
  }
};

/// The depth-first walk (Sec. 4.1) from the root `ps` ends at: writes the
/// chosen path and the stats into `result`.
///
/// Each expansion pushes its successors onto CL as one group (GroupStack),
/// so every backtrack returns to a vertex on the current path, and the walk
/// keeps no vertex but the path itself. Entering a member pops the path
/// down to the member's parent, the path's vertex at the group's depth - 1,
/// then evaluates the member at that state, the one it was generated in,
/// and pushes it. The member is a child of the vertex the path ends at
/// exactly when the path is one shorter than the group's depth; any other
/// member is a backtrack.
///
/// The best vertex is a prefix of the path until the walk unwinds past it.
/// Only then is its path copied into ws.best_path, and only from the first
/// entry the buffer does not already hold: the buffer's first `kept`
/// entries equal the path's, and an unwind lowers `kept` to the depth it
/// stops at.
void walk_depth_first(const SearchConfig& config, Workspace& ws,
                      PartialSchedule& ps, std::uint32_t m,
                      std::uint64_t budget_left, SearchResult& result) {
  GroupStack groups(ws.cl_groups, ws.cl_members);
  std::vector<Member>& members = ws.cl_members;
  std::vector<Candidate>& candidates = ws.candidates;
  std::vector<Assignment>& saved = ws.best_path;
  saved.clear();
  std::uint32_t kept = 0;
  BestVertex best;
  bool best_on_path = true;
  SearchStats& stats = result.stats;
  Assignment entered;

  while (true) {
    if (budget_left == 0) {
      stats.budget_exhausted = true;
      break;
    }
    // Expand the vertex the path ends at (expand_vertex above): its
    // successors in priority order become the top group. A D-COLS group is
    // in the member array already and leaves `candidates` empty.
    const std::size_t begin = members.size();
    expand_vertex(config, ps, m, budget_left, stats, candidates, members,
                  ws.level_order);
    for (const Candidate& c : candidates) {
      members.push_back(Member{c.task, c.worker});
    }
    groups.push(ps.depth() + 1, begin);
    if (groups.empty()) {
      if (!ps.complete()) stats.dead_end = true;
      break;
    }

    const GroupStack::Entry e = groups.pop();
    if (ps.depth() + 1 != e.depth) {
      ++stats.backtracks;
      const std::uint32_t parent = e.depth - 1;
      RTDS_ASSERT(parent < ps.depth());
      if (best_on_path && parent < best.depth) {
        // The unwind leaves the best vertex: save its path first. The
        // buffer holds at most the batch, and grows only here.
        const std::vector<Assignment>& path = ps.path();
        saved.reserve(ps.batch_size());
        saved.resize(kept);
        saved.insert(saved.end(), path.begin() + kept,
                     path.begin() + best.depth);
        kept = best.depth;
        best_on_path = false;
      }
      while (ps.depth() > parent) ps.pop();
      kept = std::min(kept, parent);
    }
    const bool ok = ps.evaluate_fast(e.member.task, e.member.worker, entered);
    RTDS_ASSERT(ok);
    (void)ok;
    ps.push(entered);

    if (ps.depth() > stats.max_depth) stats.max_depth = ps.depth();
    if (best.take(ps)) best_on_path = true;
    if (ps.complete()) {
      stats.reached_leaf = true;
      break;
    }
  }

  // Copy the best vertex's path out once at its exact length — the run's
  // only allocation, and an empty one allocates nothing.
  const Assignment* first = best_on_path ? ps.path().data() : saved.data();
  result.schedule.assign(first, first + best.depth);
}

/// The best-first walk from the root `ps` ends at: writes the chosen path
/// and the stats into `result`. CL is a heap of arena vertices, so the next
/// vertex can lie anywhere in the tree, and entering it switches the path
/// through the lowest common ancestor of the two vertices.
void walk_best_first(const SearchConfig& config, Workspace& ws,
                     PartialSchedule& ps, std::uint32_t m,
                     std::uint64_t budget_left, SearchResult& result) {
  NodeArena& arena = ws.nodes;
  arena.clear();
  CandidateList heap(ws.cl_heap);
  std::vector<Candidate>& candidates = ws.candidates;
  SearchStats& stats = result.stats;

  std::int32_t current = -1;  // arena index of the vertex CPS ends at
  std::int32_t best_node = -1;
  BestVertex best;

  const auto node_depth = [&](std::int32_t id) -> std::uint32_t {
    return id < 0 ? 0u : arena[std::size_t(id)].depth;
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
    // Expand the current vertex (expand_vertex above): each successor gets
    // its arena node and goes onto the heap, worst first.
    expand_vertex(config, ps, m, budget_left, stats, candidates,
                  ws.cl_members, ws.level_order);
    const std::uint32_t depth = ps.depth() + 1;
    for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
      heap.push(*it, arena.add(current, depth, it->task, it->worker));
    }
    if (heap.empty()) {
      if (!ps.complete()) stats.dead_end = true;
      break;
    }
    const std::int32_t next = heap.pop();
    if (arena[std::size_t(next)].parent != current) ++stats.backtracks;
    switch_to(next);

    if (ps.depth() > stats.max_depth) stats.max_depth = ps.depth();
    if (best.take(ps)) best_node = current;
    if (ps.complete()) {
      stats.reached_leaf = true;
      break;
    }
  }

  // CPS moves to the best vertex and its path is copied out once at its
  // exact length.
  switch_to(best_node);
  result.schedule.assign(ps.path().begin(), ps.path().end());
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
  if (config.strategy == SearchStrategy::kDepthFirst) {
    walk_depth_first(config, ws, *ws.schedule, m, vertex_budget, result);
  } else {
    walk_best_first(config, ws, *ws.schedule, m, vertex_budget, result);
  }
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
