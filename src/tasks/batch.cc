#include "tasks/batch.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "common/error.h"

namespace rtds::tasks {

std::int64_t consideration_key(const Task& task, TaskOrder order) {
  switch (order) {
    case TaskOrder::kEarliestDeadline:
      return task.deadline.us;
    case TaskOrder::kMinSlack:
      return (task.deadline - task.processing).us;
    case TaskOrder::kBatchOrder:
      break;
  }
  return 0;
}

Batch::Batch(const std::vector<Task>& tasks, TaskOrder order) : order_(order) {
  merge_arrivals(tasks);
}

static_assert(std::is_trivially_copyable_v<Task>);

namespace {

/// Moves `count` entries of `data` from `first` to `dest`.
template <typename T>
void move_block(T* data, std::size_t first, std::size_t count,
                std::size_t dest) {
  // A light stream's sets hold a few tasks, and a memmove call costs more
  // than copying a few entries.
  if (count > 4) {
    std::memmove(data + dest, data + first, count * sizeof(T));
  } else if (dest < first) {
    for (std::size_t i = 0; i < count; ++i) data[dest + i] = data[first + i];
  } else {
    for (std::size_t i = count; i-- > 0;) data[dest + i] = data[first + i];
  }
}

}  // namespace

void Batch::shift(std::size_t first, std::size_t last, std::size_t dest) {
  if (first == dest || first == last) return;
  move_block(tasks_.data(), first, last - first, dest);
  move_block(sequence_.data(), first, last - first, dest);
}

void Batch::resize(std::size_t n) {
  tasks_.resize(n);
  sequence_.resize(n);
}

void Batch::merge_arrivals(const std::vector<Task>& arrived) {
  for (const Task& task : arrived) {
    RTDS_REQUIRE(!task.affinity.empty(), "Batch: task has no data holder");
    RTDS_REQUIRE(task.workers_required >= 1,
                 "Batch: workers_required must be >= 1");
  }
  if (arrived.empty()) return;
  const std::size_t n = tasks_.size();
  const std::size_t k = arrived.size();
  resize(n + k);
  for (const Task& task : arrived) gangs_ += task.workers_required > 1;
  if (order_ == TaskOrder::kBatchOrder) {
    for (std::size_t j = 0; j < k; ++j) {
      tasks_[n + j] = arrived[j];
      sequence_[n + j] = next_sequence_ + j;
    }
    next_sequence_ += k;
    return;
  }
  // The group in key order, ties in arrival order: each arrival is the
  // word (key, index), the key's sign bit flipped so that unsigned order is
  // signed order. The words are distinct, so std::sort is stable here and
  // needs no buffer of its own; comparing words does not branch on equal
  // keys, which a burst has many of.
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  rank_.resize(k);
  for (std::size_t j = 0; j < k; ++j) {
    const auto key =
        static_cast<std::uint64_t>(consideration_key(arrived[j], order_));
    rank_[j] = (static_cast<unsigned __int128>(key ^ kSign) << 64) | j;
  }
  if (k > 1) std::sort(rank_.begin(), rank_.end());
  // Place the group from its last arrival back. The pending tasks ranked
  // behind an arrival — those with a greater key; one with an equal key
  // arrived earlier and stays ahead — move up in one block per array,
  // leaving room for it and the arrivals ranked before it.
  const auto key_at = [this](std::size_t i) {
    return consideration_key(tasks_[i], order_);
  };
  std::size_t pending = n;  // pending tasks not yet moved: [0, pending)
  for (std::size_t j = k; j > 0; --j) {
    const unsigned __int128 word = rank_[j - 1];
    const auto key = static_cast<std::int64_t>(
        static_cast<std::uint64_t>(word >> 64) ^ kSign);
    const auto index = static_cast<std::uint32_t>(word);
    std::size_t lo = pending;
    std::size_t hi = pending;
    if (pending > 0 && key_at(pending - 1) > key) lo = 0;
    while (lo < hi) {  // first of [0, pending) with a key above `key`
      const std::size_t mid = lo + (hi - lo) / 2;
      if (key_at(mid) > key) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    shift(lo, pending, lo + j);
    pending = lo;
    tasks_[pending + j - 1] = arrived[index];
    sequence_[pending + j - 1] = next_sequence_ + index;
  }
  next_sequence_ += k;
}

void Batch::remove_scheduled(const std::vector<std::uint32_t>& indices) {
  for (std::size_t j = 0; j < indices.size(); ++j) {
    RTDS_REQUIRE(indices[j] < tasks_.size() &&
                     (j == 0 || indices[j - 1] < indices[j]),
                 "remove_scheduled: indices must be ascending batch positions");
  }
  if (indices.empty()) return;
  // Order-preserving compaction: the survivors between two removed
  // positions move down as one block.
  std::size_t keep = indices.front();
  for (std::size_t j = 0; j < indices.size(); ++j) {
    gangs_ -= tasks_[indices[j]].workers_required > 1;
    const std::size_t first = indices[j] + std::size_t{1};
    const std::size_t last =
        j + 1 < indices.size() ? indices[j + 1] : tasks_.size();
    shift(first, last, keep);
    keep += last - first;
  }
  resize(keep);
}

SimDuration Batch::cull_missed(SimTime t, std::vector<Task>& culled) {
  culled.clear();
  const std::size_t n = tasks_.size();
  // A task is unreachable (Task::deadline_unreachable) exactly when its
  // slack is negative.
  std::int64_t min_slack = SimDuration::max().us;
  std::size_t first = 0;
  // Nothing moves before the first culled task.
  for (; first < n; ++first) {
    const std::int64_t s = tasks_[first].slack_at(t).us;
    if (s < 0) break;
    min_slack = std::min(min_slack, s);
  }
  if (first == n) return SimDuration{min_slack};
  // From there the survivors move down one block per run between culled
  // tasks.
  std::size_t keep = first;  // where the current run of survivors belongs
  std::size_t run = first;   // first survivor not yet moved
  for (std::size_t i = first; i < n; ++i) {
    const std::int64_t s = tasks_[i].slack_at(t).us;
    if (s >= 0) {
      min_slack = std::min(min_slack, s);
      continue;
    }
    culled.push_back(tasks_[i]);
    gangs_ -= tasks_[i].workers_required > 1;
    shift(run, i, keep);
    keep += i - run;
    run = i + 1;
  }
  shift(run, n, keep);
  resize(keep + (n - run));
  return SimDuration{min_slack};
}

SimDuration Batch::min_slack(SimTime t) const {
  RTDS_REQUIRE(!tasks_.empty(), "min_slack of empty batch");
  std::int64_t best = SimDuration::max().us;
  for (const Task& task : tasks_) best = std::min(best, task.slack_at(t).us);
  return SimDuration{best};
}

void Batch::clear() {
  resize(0);
  next_sequence_ = 0;
  gangs_ = 0;
}

void Batch::reset(TaskOrder order) {
  clear();
  order_ = order;
}

std::size_t Batch::footprint_bytes() const {
  const auto bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return bytes(tasks_) + bytes(sequence_) + bytes(rank_);
}

}  // namespace rtds::tasks
