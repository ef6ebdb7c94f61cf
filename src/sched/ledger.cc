#include "sched/ledger.h"

#include <bit>
#include <iterator>
#include <limits>
#include <sstream>
#include <utility>

#include "common/error.h"

namespace rtds::sched {

const char* to_string(TaskState state) {
  switch (state) {
    case TaskState::kArrived: return "arrived";
    case TaskState::kBatched: return "batched";
    case TaskState::kScheduled: return "scheduled";
    case TaskState::kDelivered: return "delivered";
    case TaskState::kDeadlineHit: return "deadline_hit";
    case TaskState::kExecMiss: return "exec_miss";
    case TaskState::kCulled: return "culled";
    case TaskState::kRejected: return "rejected";
    case TaskState::kAdmissionRejected: return "admission_rejected";
  }
  return "unknown";
}

namespace {

/// The table starts at this many slots on its first arrival.
constexpr std::size_t kMinSlots = 16;

}  // namespace

void TaskLedger::arrive(tasks::TaskId id) {
  RTDS_CHECK_MSG(insert_seen(id), "TaskLedger: task arrived twice");
  insert(id);
  ++counts_.total;
  ++counts_.in_flight;
}

void TaskLedger::admit(tasks::TaskId id) {
  transition(id, TaskState::kArrived, TaskState::kBatched);
}

void TaskLedger::schedule(tasks::TaskId id) {
  transition(id, TaskState::kBatched, TaskState::kScheduled);
  ++counts_.schedule_events;
}

void TaskLedger::deliver(tasks::TaskId id) {
  transition(id, TaskState::kScheduled, TaskState::kDelivered);
  ++counts_.delivery_events;
}

void TaskLedger::drop(tasks::TaskId id) {
  ++transition(id, TaskState::kScheduled, TaskState::kBatched).refusals;
  ++counts_.drop_events;
}

void TaskLedger::cull(tasks::TaskId id) {
  retire(id, TaskState::kBatched, TaskState::kCulled);
  ++counts_.culled;
}

void TaskLedger::reject(tasks::TaskId id) {
  retire(id, TaskState::kScheduled, TaskState::kRejected);
  ++counts_.rejected;
}

void TaskLedger::reject_admission(tasks::TaskId id) {
  retire(id, TaskState::kArrived, TaskState::kAdmissionRejected);
  ++counts_.admission_rejected;
}

void TaskLedger::execute(tasks::TaskId id, bool hit) {
  retire(id, TaskState::kDelivered,
         hit ? TaskState::kDeadlineHit : TaskState::kExecMiss);
  if (hit) {
    ++counts_.deadline_hits;
  } else {
    ++counts_.exec_misses;
  }
}

bool TaskLedger::known(tasks::TaskId id) const {
  if (has_tail_ && id >= tail_first_) return id <= tail_last_;
  const auto next = seen_.upper_bound(id);
  return next != seen_.begin() && id <= std::prev(next)->second;
}

TaskState TaskLedger::state(tasks::TaskId id) const {
  return entry(id).state;
}

std::uint32_t TaskLedger::refusals(tasks::TaskId id) const {
  return entry(id).refusals;
}

void TaskLedger::check_conserved() const {
  if (counts_.conserved()) return;
  std::ostringstream os;
  os << "task conservation violated: total " << counts_.total
     << " != deadline_hits " << counts_.deadline_hits << " + exec_misses "
     << counts_.exec_misses << " + culled " << counts_.culled
     << " + rejected " << counts_.rejected << " + admission_rejected "
     << counts_.admission_rejected << " (in flight " << counts_.in_flight
     << ")";
  RTDS_CHECK_MSG(false, os.str());
}

void TaskLedger::clear() {
  if (size_ != 0) {
    for (Slot& slot : slots_) slot.live = false;
  }
  size_ = 0;
  seen_.clear();
  has_tail_ = false;
  counts_ = LedgerCounts{};
}

std::size_t TaskLedger::home_slot(tasks::TaskId id, std::size_t capacity) {
  // Fibonacci hashing: the top bits of the product spread ids that differ
  // only in high bits, or arrive consecutively, over the whole table; the
  // low bits of the id alone would put every in-flight id in one run.
  const auto bits = static_cast<unsigned>(std::countr_zero(capacity));
  if (bits == 0) return 0;
  return static_cast<std::size_t>(
      (std::uint64_t{id} * 0x9E3779B97F4A7C15ull) >> (64 - bits));
}

std::size_t TaskLedger::find(tasks::TaskId id) const {
  const std::size_t capacity = slots_.size();
  if (capacity == 0) return 0;
  const std::size_t mask = capacity - 1;
  for (std::size_t i = home_slot(id, capacity);; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (!slot.live) return capacity;
    if (slot.id == id) return i;
  }
}

void TaskLedger::insert(tasks::TaskId id) {
  if (2 * (size_ + 1) > slots_.size()) {
    const std::vector<Slot> old = std::exchange(
        slots_, std::vector<Slot>(std::max(kMinSlots, 2 * slots_.size())));
    for (const Slot& slot : old) {
      if (slot.live) place(slot);
    }
  }
  place(Slot{id, 0, TaskState::kArrived, true});
  ++size_;
}

void TaskLedger::place(const Slot& slot) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home_slot(slot.id, slots_.size());
  while (slots_[i].live) i = (i + 1) & mask;
  slots_[i] = slot;
}

void TaskLedger::erase(std::size_t i) {
  const std::size_t mask = slots_.size() - 1;
  // Backward shift: an entry later in the run moves into the hole unless
  // its home lies cyclically after the hole, where a probe for it would
  // never look back.
  for (std::size_t j = (i + 1) & mask; slots_[j].live; j = (j + 1) & mask) {
    const std::size_t home = home_slot(slots_[j].id, slots_.size());
    if (((j - home) & mask) >= ((j - i) & mask)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i].live = false;
  --size_;
}

TaskLedger::Slot& TaskLedger::expect(tasks::TaskId id, TaskState from,
                                     TaskState to) {
  const std::size_t i = find(id);
  if (i == slots_.size() || slots_[i].state != from) {
    std::ostringstream os;
    os << "TaskLedger: task " << id << " is ";
    if (i != slots_.size()) {
      os << to_string(slots_[i].state);
    } else {
      os << (known(id) ? "retired" : "unknown");
    }
    os << ", cannot move " << to_string(from) << " -> " << to_string(to);
    RTDS_CHECK_MSG(false, os.str());
  }
  return slots_[i];
}

TaskLedger::Slot& TaskLedger::transition(tasks::TaskId id, TaskState from,
                                         TaskState to) {
  Slot& slot = expect(id, from, to);
  slot.state = to;
  return slot;
}

const TaskLedger::Slot& TaskLedger::entry(tasks::TaskId id) const {
  const std::size_t i = find(id);
  RTDS_CHECK_MSG(i != slots_.size(),
                 known(id) ? "TaskLedger: task already retired"
                           : "TaskLedger: unknown task id");
  return slots_[i];
}

void TaskLedger::retire(tasks::TaskId id, TaskState from, TaskState to) {
  erase(static_cast<std::size_t>(&expect(id, from, to) - slots_.data()));
  --counts_.in_flight;
}

bool TaskLedger::insert_seen(tasks::TaskId id) {
  constexpr tasks::TaskId kMax = std::numeric_limits<tasks::TaskId>::max();
  // Every built-in source numbers its tasks consecutively, so the id
  // usually extends the tail range, which no range follows.
  if (!has_tail_ || id > tail_last_) {
    if (has_tail_ && id - 1 == tail_last_) {
      tail_last_ = id;
      return true;
    }
    if (has_tail_) seen_.emplace_hint(seen_.end(), tail_first_, tail_last_);
    tail_first_ = id;
    tail_last_ = id;
    has_tail_ = true;
    return true;
  }
  if (id >= tail_first_) return false;
  if (id + 1 == tail_first_) {
    // The tail extends downwards and may reach the highest map range.
    tail_first_ = id;
    if (!seen_.empty()) {
      const auto last = std::prev(seen_.end());
      if (last->second + 1 == id) {
        tail_first_ = last->first;
        seen_.erase(last);
      }
    }
    return true;
  }
  // Below the tail and not next to it. The first range starting above id,
  // and the one before it (if any), which is the only range that can
  // contain id or end just below it.
  const auto next = seen_.upper_bound(id);
  const bool joins_next = next != seen_.end() && next->first == id + 1;
  if (next != seen_.begin()) {
    const auto prev = std::prev(next);
    if (id <= prev->second) return false;
    if (prev->second != kMax && prev->second + 1 == id) {
      prev->second = joins_next ? next->second : id;
      if (joins_next) seen_.erase(next);
      return true;
    }
  }
  if (joins_next) {
    // Extend the next range downwards: its key changes, so re-insert it.
    const tasks::TaskId last = next->second;
    seen_.emplace_hint(seen_.erase(next), id, last);
    return true;
  }
  seen_.emplace_hint(next, id, id);
  return true;
}

}  // namespace rtds::sched
