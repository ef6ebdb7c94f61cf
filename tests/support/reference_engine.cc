// Pre-optimization engine snapshot — see reference_engine.h for why this
// code is deliberately kept slow. It mirrors the historic engine.cc and
// partial_schedule.cc line for line (modulo renames into this namespace).
#include "support/reference_engine.h"

#include <algorithm>
#include <optional>
#include <tuple>

#include "common/error.h"

namespace rtds::search::reference {

namespace {

/// Historic PartialSchedule: std::vector<bool> assigned map, O(m) max_ce
/// rescan on every pop.
class ReferencePartialSchedule {
 public:
  ReferencePartialSchedule(const std::vector<Task>* batch,
                           std::vector<SimDuration> base_loads,
                           SimTime delivery_time,
                           const machine::Interconnect* net)
      : batch_(batch),
        net_(net),
        delivery_time_(delivery_time),
        base_loads_(std::move(base_loads)),
        assigned_(batch->size(), false) {
    RTDS_REQUIRE(batch_ != nullptr && net_ != nullptr,
                 "ReferencePartialSchedule: null batch or interconnect");
    RTDS_REQUIRE(base_loads_.size() == net_->num_workers(),
                 "ReferencePartialSchedule: base_loads size != worker count");
    for (SimDuration d : base_loads_) {
      RTDS_REQUIRE(!d.is_negative(),
                   "ReferencePartialSchedule: negative base load");
    }
    ce_ = base_loads_;
    max_ce_ = SimDuration::zero();
    for (SimDuration d : ce_) max_ce_ = max_duration(max_ce_, d);
    path_.reserve(batch->size());
  }

  [[nodiscard]] std::uint32_t depth() const {
    return static_cast<std::uint32_t>(path_.size());
  }
  [[nodiscard]] std::uint32_t batch_size() const {
    return static_cast<std::uint32_t>(batch_->size());
  }
  [[nodiscard]] bool complete() const { return depth() == batch_size(); }
  [[nodiscard]] bool assigned(std::uint32_t task_index) const {
    return assigned_[task_index];
  }
  [[nodiscard]] SimDuration ce(ProcessorId k) const { return ce_[k]; }
  [[nodiscard]] SimDuration max_ce() const { return max_ce_; }

  [[nodiscard]] std::optional<Assignment> evaluate(std::uint32_t task_index,
                                                   ProcessorId worker) const {
    RTDS_REQUIRE(task_index < batch_->size(), "evaluate: bad task index");
    RTDS_REQUIRE(worker < net_->num_workers(), "evaluate: bad worker id");
    RTDS_REQUIRE(!assigned_[task_index], "evaluate: task already assigned");

    const Task& t = (*batch_)[task_index];
    // Gang occupancy rule (must match PartialSchedule::evaluate_fast): the
    // contiguous block [worker, worker+k) must fit in the machine, and the
    // job starts only once the whole block has drained. Communication is
    // priced against the lead worker's affinity alone.
    if (std::size_t{worker} + t.workers_required > ce_.size()) {
      return std::nullopt;
    }
    Assignment a;
    a.task_index = task_index;
    a.worker = worker;
    a.exec_cost = t.processing + net_->comm_cost(t.affinity, worker);
    a.prev_ce = ce_[worker];
    a.prev_max_ce = max_ce_;
    a.start_offset = a.prev_ce;
    for (std::uint32_t j = 1; j < t.workers_required; ++j) {
      a.start_offset = max_duration(a.start_offset, ce_[worker + j]);
    }
    if (t.earliest_start > delivery_time_) {
      a.start_offset =
          max_duration(a.start_offset, t.earliest_start - delivery_time_);
    }
    a.end_offset = a.start_offset + a.exec_cost;

    if (delivery_time_ + a.end_offset > t.deadline) return std::nullopt;
    return a;
  }

  void push(const Assignment& a) {
    RTDS_ASSERT(!assigned_[a.task_index]);
    RTDS_ASSERT(a.worker < ce_.size());
    RTDS_ASSERT(ce_[a.worker] == a.prev_ce);
    assigned_[a.task_index] = true;
    const std::uint32_t k = (*batch_)[a.task_index].workers_required;
    for (std::uint32_t j = 1; j < k; ++j) {
      gang_undo_.push_back(ce_[a.worker + j]);
      ce_[a.worker + j] = a.end_offset;
    }
    ce_[a.worker] = a.end_offset;
    max_ce_ = max_duration(max_ce_, ce_[a.worker]);
    path_.push_back(a);
  }

  void pop() {
    RTDS_REQUIRE(!path_.empty(), "pop: empty path");
    const Assignment a = path_.back();
    path_.pop_back();
    assigned_[a.task_index] = false;
    const std::uint32_t k = (*batch_)[a.task_index].workers_required;
    for (std::uint32_t j = k; j-- > 1;) {
      ce_[a.worker + j] = gang_undo_.back();
      gang_undo_.pop_back();
    }
    ce_[a.worker] = a.prev_ce;
    // Historic behavior: max_ce recomputed with a full O(m) rescan.
    max_ce_ = SimDuration::zero();
    for (SimDuration d : ce_) max_ce_ = max_duration(max_ce_, d);
  }

 private:
  const std::vector<Task>* batch_;
  const machine::Interconnect* net_;
  SimTime delivery_time_;
  std::vector<SimDuration> base_loads_;
  std::vector<SimDuration> ce_;
  SimDuration max_ce_{SimDuration::zero()};
  std::vector<bool> assigned_;
  std::vector<Assignment> path_;
  std::vector<SimDuration> gang_undo_;
};

struct Node {
  std::int32_t parent{-1};
  std::uint32_t depth{0};
  std::uint32_t order_cursor{0};
  Assignment assignment;
};

struct Candidate {
  Assignment assignment;
  std::int64_t key1{0};
  std::int64_t key2{0};
  std::uint32_t key3{0};

  bool operator<(const Candidate& o) const {
    return std::tie(key1, key2, key3) < std::tie(o.key1, o.key2, o.key3);
  }
};

/// Historic candidate list: one Entry vector, std::push_heap per best-first
/// insertion.
class CandidateList {
 public:
  explicit CandidateList(SearchStrategy strategy) : strategy_(strategy) {}

  [[nodiscard]] bool empty() const { return entries_.empty(); }

  void push(const Candidate& c, std::int32_t node) {
    entries_.push_back(Entry{c.key1, c.key2, c.key3, seq_++, node});
    if (strategy_ == SearchStrategy::kBestFirst) {
      std::push_heap(entries_.begin(), entries_.end(), BestOnTop{});
    }
  }

  std::int32_t pop() {
    RTDS_ASSERT(!entries_.empty());
    if (strategy_ == SearchStrategy::kBestFirst) {
      std::pop_heap(entries_.begin(), entries_.end(), BestOnTop{});
    }
    const std::int32_t node = entries_.back().node;
    entries_.pop_back();
    return node;
  }

 private:
  struct Entry {
    std::int64_t k1;
    std::int64_t k2;
    std::uint32_t k3;
    std::uint64_t seq;
    std::int32_t node;
  };
  struct BestOnTop {
    bool operator()(const Entry& a, const Entry& b) const {
      return std::tie(a.k1, a.k2, a.k3, a.seq) >
             std::tie(b.k1, b.k2, b.k3, b.seq);
    }
  };

  SearchStrategy strategy_;
  std::uint64_t seq_{0};
  std::vector<Entry> entries_;
};

}  // namespace

SearchResult run(const SearchConfig& config, const std::vector<Task>& batch,
                 std::vector<SimDuration> base_loads, SimTime delivery_time,
                 const machine::Interconnect& net,
                 std::uint64_t vertex_budget) {
  SearchResult result;
  if (batch.empty() || vertex_budget == 0) return result;

  const auto n = static_cast<std::uint32_t>(batch.size());
  const std::uint32_t m = net.num_workers();
  const std::vector<std::uint32_t> order =
      task_consideration_order(batch, config.task_order);

  ReferencePartialSchedule ps(&batch, std::move(base_loads), delivery_time,
                              &net);

  std::vector<Node> arena;
  arena.reserve(std::min<std::uint64_t>(vertex_budget, 1u << 20));
  CandidateList cl(config.strategy);

  SearchStats& stats = result.stats;
  std::uint64_t budget_left = vertex_budget;

  std::int32_t current = -1;
  std::int32_t best_node = -1;
  std::uint32_t best_depth = 0;
  SimDuration best_ce = SimDuration::max();

  const auto node_depth = [&](std::int32_t id) -> std::uint32_t {
    return id < 0 ? 0u : arena[std::size_t(id)].depth;
  };

  const auto make_candidate = [&](const Assignment& a,
                                  std::uint32_t branch_index) {
    Candidate c;
    c.assignment = a;
    if (config.use_load_balance_cost) {
      c.key1 = max_duration(ps.max_ce(), a.end_offset).us;
      c.key2 = a.end_offset.us;
      c.key3 = branch_index;
    } else if (config.representation == Representation::kAssignmentOriented) {
      switch (config.processor_order) {
        case ProcessorOrder::kIndexOrder:
          c.key1 = a.worker;
          break;
        case ProcessorOrder::kMinEndOffset:
          c.key1 = a.end_offset.us;
          c.key2 = a.worker;
          break;
        case ProcessorOrder::kMinCommCost:
          c.key1 = (a.exec_cost - batch[a.task_index].processing).us;
          c.key2 = a.end_offset.us;
          c.key3 = a.worker;
          break;
      }
    } else {
      c.key1 = branch_index;
    }
    return c;
  };

  std::vector<Candidate> candidates;
  const auto expand_current = [&](std::uint32_t cursor) -> std::uint32_t {
    ++stats.expansions;
    candidates.clear();
    const std::uint32_t depth = ps.depth();

    if (config.representation == Representation::kAssignmentOriented) {
      std::uint32_t scan = cursor;
      while (scan < n) {
        while (scan < n && ps.assigned(order[scan])) ++scan;
        if (scan == n) break;
        const std::uint32_t task = order[scan];
        for (std::uint32_t k = 0; k < m; ++k) {
          if (budget_left == 0) {
            stats.budget_exhausted = true;
            break;
          }
          --budget_left;
          ++stats.vertices_generated;
          if (auto a = ps.evaluate(task, k)) {
            candidates.push_back(make_candidate(*a, k));
            if (config.max_successors != 0 &&
                candidates.size() >= config.max_successors) {
              break;
            }
          }
        }
        if (!candidates.empty() || stats.budget_exhausted ||
            !config.skip_unplaceable_tasks) {
          break;
        }
        ++scan;
      }
      cursor = scan;
    } else {
      std::vector<ProcessorId> level_order(m);
      for (std::uint32_t k = 0; k < m; ++k) {
        level_order[k] = (depth + k) % m;
      }
      if (config.level_processor_order == LevelProcessorOrder::kLeastLoaded) {
        std::stable_sort(level_order.begin(), level_order.end(),
                         [&](ProcessorId a, ProcessorId b) {
                           return ps.ce(a) < ps.ce(b);
                         });
      }
      const std::uint32_t max_rotations =
          config.skip_saturated_processors ? m : 1;
      for (std::uint32_t rot = 0; rot < max_rotations; ++rot) {
        const ProcessorId worker = level_order[rot];
        std::uint32_t branch = 0;
        for (std::uint32_t i : order) {
          if (ps.assigned(i)) continue;
          if (budget_left == 0) {
            stats.budget_exhausted = true;
            break;
          }
          --budget_left;
          ++stats.vertices_generated;
          if (auto a = ps.evaluate(i, worker)) {
            candidates.push_back(make_candidate(*a, branch));
            if (config.max_successors != 0 &&
                candidates.size() >= config.max_successors) {
              break;
            }
          }
          ++branch;
        }
        if (!candidates.empty() || stats.budget_exhausted) break;
      }
    }

    std::stable_sort(candidates.begin(), candidates.end());
    for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
      Node node;
      node.parent = current;
      node.depth = ps.depth() + 1;
      node.order_cursor = cursor;
      node.assignment = it->assignment;
      arena.push_back(node);
      cl.push(*it, static_cast<std::int32_t>(arena.size() - 1));
    }
    return cursor;
  };

  std::vector<const Assignment*> chain;
  const auto switch_to = [&](std::int32_t target) {
    chain.clear();
    std::int32_t a = current;
    std::int32_t b = target;
    while (node_depth(b) > node_depth(a)) {
      chain.push_back(&arena[std::size_t(b)].assignment);
      b = arena[std::size_t(b)].parent;
    }
    while (node_depth(a) > node_depth(b)) {
      ps.pop();
      a = arena[std::size_t(a)].parent;
    }
    while (a != b) {
      ps.pop();
      a = arena[std::size_t(a)].parent;
      chain.push_back(&arena[std::size_t(b)].assignment);
      b = arena[std::size_t(b)].parent;
    }
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      ps.push(**it);
    }
    current = target;
  };

  while (true) {
    if (budget_left == 0) {
      stats.budget_exhausted = true;
      break;
    }
    expand_current(current < 0 ? 0u
                               : arena[std::size_t(current)].order_cursor);
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

  std::vector<Assignment> out;
  for (std::int32_t v = best_node; v >= 0; v = arena[std::size_t(v)].parent) {
    out.push_back(arena[std::size_t(v)].assignment);
  }
  std::reverse(out.begin(), out.end());
  result.schedule = std::move(out);
  return result;
}

}  // namespace rtds::search::reference
