#include "tasks/batch.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

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

/// A group this large is ordered by the radix sort: below it, std::sort's
/// few comparisons cost less than the radix sort's counting passes.
constexpr std::size_t kRadixMinGroup = 256;

/// The key half of a rank word.
std::uint64_t word_key(unsigned __int128 word) {
  return static_cast<std::uint64_t>(word >> 64);
}

}  // namespace

void Batch::shift(std::size_t first, std::size_t last, std::size_t dest) {
  if (first == dest || first == last) return;
  move_block(tasks_.data() + head_, first, last - first, dest);
  move_block(sequence_.data() + head_, first, last - first, dest);
}

void Batch::reserve_back(std::size_t k) {
  const std::size_t need = size_ + k;
  if (head_ + need <= tasks_.size()) return;
  if (head_ != 0) {
    move_block(tasks_.data(), head_, size_, 0);
    move_block(sequence_.data(), head_, size_, 0);
    head_ = 0;
  }
  if (need > tasks_.size()) {
    const std::size_t slots = std::max(need, 2 * tasks_.size());
    tasks_.resize(slots);
    sequence_.resize(slots);
  }
}

void Batch::sort_rank() {
  const std::size_t k = rank_.size();
  if (k < kRadixMinGroup) {
    std::sort(rank_.begin(), rank_.end());
    return;
  }
  // LSD radix sort over the key bytes that vary in the group; the index
  // half is already ascending, and each counting pass is stable, so ties
  // stay in arrival order.
  std::uint64_t varying = 0;
  const std::uint64_t first = word_key(rank_[0]);
  for (const unsigned __int128 word : rank_) varying |= word_key(word) ^ first;
  std::array<unsigned, 8> shifts{};  // of the varying bytes, lowest first
  std::size_t passes = 0;
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((varying >> shift) & 0xFF) != 0) shifts[passes++] = shift;
  }
  std::array<std::array<std::uint32_t, 256>, 8> counts{};
  for (const unsigned __int128 word : rank_) {
    const std::uint64_t key = word_key(word);
    for (std::size_t p = 0; p < passes; ++p) {
      ++counts[p][(key >> shifts[p]) & 0xFF];
    }
  }
  rank_scratch_.resize(k);
  unsigned __int128* from = rank_.data();
  unsigned __int128* to = rank_scratch_.data();
  for (std::size_t p = 0; p < passes; ++p) {
    std::array<std::uint32_t, 256>& offsets = counts[p];
    std::uint32_t sum = 0;
    for (std::uint32_t& c : offsets) sum += std::exchange(c, sum);
    for (std::size_t i = 0; i < k; ++i) {
      const unsigned __int128 word = from[i];
      to[offsets[(word_key(word) >> shifts[p]) & 0xFF]++] = word;
    }
    std::swap(from, to);
  }
  if (from != rank_.data()) std::copy(from, from + k, rank_.data());
}

void Batch::merge_arrivals(const std::vector<Task>& arrived) {
  for (const Task& task : arrived) {
    RTDS_REQUIRE(!task.affinity.empty(), "Batch: task has no data holder");
    RTDS_REQUIRE(task.workers_required >= 1,
                 "Batch: workers_required must be >= 1");
  }
  if (arrived.empty()) return;
  const std::size_t n = size_;
  const std::size_t k = arrived.size();
  reserve_back(k);
  size_ = n + k;
  for (const Task& task : arrived) {
    gangs_ += task.workers_required > 1;
    max_processing_ = std::max(max_processing_, task.processing.us);
    max_start_ = std::max(max_start_, task.earliest_start.us);
  }
  Task* const live = tasks_.data() + head_;
  std::uint64_t* const sequence = sequence_.data() + head_;
  if (order_ == TaskOrder::kBatchOrder) {
    for (std::size_t j = 0; j < k; ++j) {
      live[n + j] = arrived[j];
      sequence[n + j] = next_sequence_ + j;
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
  if (k > 1) sort_rank();
  // Place the group from its last arrival back. The pending tasks ranked
  // behind an arrival — those with a greater key; one with an equal key
  // arrived earlier and stays ahead — move up in one block per array,
  // leaving room for it and the arrivals ranked before it.
  const auto key_at = [this, live](std::size_t i) {
    return consideration_key(live[i], order_);
  };
  std::size_t pending = n;  // pending tasks not yet moved: [0, pending)
  for (std::size_t j = k; j > 0; --j) {
    const unsigned __int128 word = rank_[j - 1];
    const auto key = static_cast<std::int64_t>(word_key(word) ^ kSign);
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
    live[pending + j - 1] = arrived[index];
    sequence[pending + j - 1] = next_sequence_ + index;
  }
  next_sequence_ += k;
}

void Batch::erase(const std::uint32_t* positions, std::size_t count) {
  if (count == 0) return;
  const Task* const live = tasks_.data() + head_;
  for (std::size_t j = 0; j < count; ++j) {
    gangs_ -= live[positions[j]].workers_required > 1;
  }
  const std::size_t n = size_;
  const std::size_t last = positions[count - 1];
  // Survivors before the last removal and after the first one.
  const std::size_t before = last + 1 - count;
  const std::size_t after = n - positions[0] - count;
  if (before <= after) {
    // The survivors before the last removal move up, one block per run
    // between removed positions, the last run first; the head then
    // advances past the vacated slots. A removed prefix moves nothing.
    std::size_t write = last + 1;
    for (std::size_t j = count; j-- > 0;) {
      const std::size_t first = j == 0 ? 0 : positions[j - 1] + std::size_t{1};
      write -= positions[j] - first;
      shift(first, positions[j], write);
    }
    head_ += count;
  } else {
    // The survivors after the first removal move down, one block per run.
    std::size_t keep = positions[0];
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t first = positions[j] + std::size_t{1};
      const std::size_t end = j + 1 < count ? positions[j + 1] : n;
      shift(first, end, keep);
      keep += end - first;
    }
  }
  size_ = n - count;
  if (size_ == 0) on_empty();
}

void Batch::on_empty() {
  head_ = 0;
  max_processing_ = 0;
  max_start_ = 0;
}

void Batch::remove_scheduled(const std::vector<std::uint32_t>& indices) {
  for (std::size_t j = 0; j < indices.size(); ++j) {
    RTDS_REQUIRE(indices[j] < size_ && (j == 0 || indices[j - 1] < indices[j]),
                 "remove_scheduled: indices must be ascending batch positions");
  }
  erase(indices.data(), indices.size());
}

SimDuration Batch::cull_missed(SimTime t, std::vector<TaskId>& culled) {
  culled.clear();
  removed_.clear();
  const Task* const live = tasks_.data() + head_;
  const std::size_t n = size_;
  // A task is unreachable (Task::deadline_unreachable) exactly when its
  // slack is negative. The tasks at and after position i have slack at
  // least key_i - reach (see the header), so the scan ends at the first
  // key above `stop`: min_slack + reach - 1, where no later task can be
  // culled or lower min_slack. Until a task survives nothing is known.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  const bool bounded = order_ != TaskOrder::kBatchOrder;
  const bool by_slack = order_ == TaskOrder::kMinSlack;
  const __int128 reach =
      __int128{std::max(t.us, max_start_)} +
      (order_ == TaskOrder::kEarliestDeadline ? max_processing_ : 0);
  std::int64_t min_slack = SimDuration::max().us;
  std::int64_t stop = kMax;
  for (std::size_t i = 0; i < n; ++i) {
    const Task& task = live[i];
    const std::int64_t key =
        task.deadline.us - (by_slack ? task.processing.us : 0);
    if (key > stop) break;
    const std::int64_t s = task.slack_at(t).us;
    if (s < 0) {
      removed_.push_back(static_cast<std::uint32_t>(i));
      culled.push_back(task.id);
    } else if (s < min_slack) {
      min_slack = s;
      if (bounded) {
        stop = static_cast<std::int64_t>(
            std::clamp<__int128>(__int128{s} + reach - 1, kMin, kMax));
      }
    }
  }
  erase(removed_.data(), removed_.size());
  return SimDuration{min_slack};
}

SimDuration Batch::min_slack(SimTime t) const {
  RTDS_REQUIRE(size_ != 0, "min_slack of empty batch");
  std::int64_t best = SimDuration::max().us;
  for (const Task& task : tasks()) best = std::min(best, task.slack_at(t).us);
  return SimDuration{best};
}

void Batch::clear() {
  size_ = 0;
  next_sequence_ = 0;
  gangs_ = 0;
  on_empty();
}

void Batch::reset(TaskOrder order) {
  clear();
  order_ = order;
}

std::size_t Batch::footprint_bytes() const {
  const auto bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return bytes(tasks_) + bytes(sequence_) + bytes(rank_) +
         bytes(rank_scratch_) + bytes(removed_);
}

}  // namespace rtds::tasks
