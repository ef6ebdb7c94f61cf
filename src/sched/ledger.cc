#include "sched/ledger.h"

#include <iterator>
#include <limits>
#include <sstream>

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

void TaskLedger::arrive(tasks::TaskId id) {
  RTDS_CHECK_MSG(insert_seen(id), "TaskLedger: task arrived twice");
  states_.emplace(id, Entry{});
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
  states_.clear();
  seen_.clear();
  counts_ = LedgerCounts{};
}

TaskLedger::States::iterator TaskLedger::expect(tasks::TaskId id,
                                                TaskState from, TaskState to) {
  const auto it = states_.find(id);
  if (it == states_.end() || it->second.state != from) {
    std::ostringstream os;
    os << "TaskLedger: task " << id << " is ";
    if (it != states_.end()) {
      os << to_string(it->second.state);
    } else {
      os << (known(id) ? "retired" : "unknown");
    }
    os << ", cannot move " << to_string(from) << " -> " << to_string(to);
    RTDS_CHECK_MSG(false, os.str());
  }
  return it;
}

TaskLedger::Entry& TaskLedger::transition(tasks::TaskId id, TaskState from,
                                          TaskState to) {
  Entry& e = expect(id, from, to)->second;
  e.state = to;
  return e;
}

const TaskLedger::Entry& TaskLedger::entry(tasks::TaskId id) const {
  const auto it = states_.find(id);
  RTDS_CHECK_MSG(it != states_.end(),
                 known(id) ? "TaskLedger: task already retired"
                           : "TaskLedger: unknown task id");
  return it->second;
}

void TaskLedger::retire(tasks::TaskId id, TaskState from, TaskState to) {
  states_.erase(expect(id, from, to));
  --counts_.in_flight;
}

bool TaskLedger::insert_seen(tasks::TaskId id) {
  constexpr tasks::TaskId kMax = std::numeric_limits<tasks::TaskId>::max();
  // The first range starting above id, and the one before it (if any),
  // which is the only range that can contain id or end just below it.
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
