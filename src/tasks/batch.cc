#include "tasks/batch.h"

#include "common/error.h"

namespace rtds::tasks {

void Batch::merge_arrivals(const std::vector<Task>& arrived) {
  tasks_.insert(tasks_.end(), arrived.begin(), arrived.end());
}

void Batch::remove_scheduled(const std::vector<std::uint32_t>& indices) {
  for (std::size_t j = 0; j < indices.size(); ++j) {
    RTDS_REQUIRE(indices[j] < tasks_.size() &&
                     (j == 0 || indices[j - 1] < indices[j]),
                 "remove_scheduled: indices must be ascending batch positions");
  }
  if (indices.empty()) return;
  // Order-preserving compaction from the first removed slot on.
  std::size_t keep = indices.front();
  std::size_t next = 0;
  for (std::size_t i = keep; i < tasks_.size(); ++i) {
    if (next < indices.size() && indices[next] == i) {
      ++next;
    } else {
      tasks_[keep++] = tasks_[i];
    }
  }
  tasks_.resize(keep);
}

SimDuration Batch::cull_missed(SimTime t, std::vector<Task>& culled) {
  culled.clear();
  SimDuration min_slack = SimDuration::max();
  std::size_t keep = 0;
  // Nothing moves before the first culled task.
  for (; keep < tasks_.size() && !tasks_[keep].deadline_unreachable(t);
       ++keep) {
    min_slack = min_duration(min_slack, tasks_[keep].slack_at(t));
  }
  for (std::size_t i = keep; i < tasks_.size(); ++i) {
    if (tasks_[i].deadline_unreachable(t)) {
      culled.push_back(tasks_[i]);
    } else {
      min_slack = min_duration(min_slack, tasks_[i].slack_at(t));
      tasks_[keep++] = tasks_[i];
    }
  }
  tasks_.resize(keep);
  return min_slack;
}

SimDuration Batch::min_slack(SimTime t) const {
  RTDS_REQUIRE(!tasks_.empty(), "min_slack of empty batch");
  SimDuration best = SimDuration::max();
  for (const Task& task : tasks_) {
    best = min_duration(best, task.slack_at(t));
  }
  return best;
}

SimDuration Batch::total_processing() const {
  SimDuration total = SimDuration::zero();
  for (const Task& task : tasks_) total += task.processing;
  return total;
}

}  // namespace rtds::tasks
