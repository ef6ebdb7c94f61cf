#include "machine/cluster.h"

#include "common/error.h"

namespace rtds::machine {

Cluster::Cluster(std::uint32_t num_workers, Interconnect interconnect,
                 ReclaimMode reclaim, CompletionLog log)
    : num_workers_(num_workers),
      interconnect_(interconnect),
      reclaim_(reclaim),
      workers_(num_workers),
      keep_log_(log == CompletionLog::kKeep) {
  RTDS_REQUIRE(num_workers >= 1, "Cluster: need >= 1 worker");
  RTDS_REQUIRE(interconnect.num_workers() == num_workers,
               "Cluster: interconnect sized for a different worker count");
}

std::span<const CompletionRecord> Cluster::deliver(
    const std::vector<ScheduledAssignment>& schedule, SimTime now) {
  delivered_.clear();
  for (const ScheduledAssignment& sa : schedule) {
    const std::uint32_t k = sa.task.workers_required;
    RTDS_REQUIRE(k >= 1, "deliver: workers_required must be >= 1");
    RTDS_REQUIRE(sa.worker < num_workers_ && k <= num_workers_ - sa.worker,
                 "deliver: gang block exceeds the machine");
    RTDS_REQUIRE(sa.task.effective_processing() <= sa.task.processing,
                 "deliver: actual cost exceeds the worst-case estimate");
    const SimDuration comm =
        interconnect_.comm_cost(sa.task.affinity, sa.worker);
    const SimDuration demand = reclaim_ == ReclaimMode::kReclaim
                                   ? sa.task.effective_processing()
                                   : sa.task.processing;
    reclaimed_ += sa.task.processing - demand;
    // A gang job is handed to its whole block atomically: it starts once
    // every block member's queue has drained, and occupies all of them
    // until it ends. Communication is priced against the lead's affinity.
    SimTime start = now;
    for (std::uint32_t j = 0; j < k; ++j) {
      const SimTime horizon = workers_[sa.worker + j].busy_until;
      if (horizon > start) start = horizon;
    }
    if (sa.task.earliest_start > start) start = sa.task.earliest_start;
    const SimTime end = start + demand + comm;
    for (std::uint32_t j = 0; j < k; ++j) {
      Worker& w = workers_[sa.worker + j];
      w.busy_until = end;
      w.busy_time += demand + comm;
    }

    CompletionRecord rec;
    rec.task = sa.task.id;
    rec.worker = sa.worker;
    rec.delivered = now;
    rec.start = start;
    rec.end = end;
    rec.deadline = sa.task.deadline;
    rec.comm_cost = comm;
    rec.width = k;
    delivered_.push_back(rec);

    ++stats_.executed;
    if (rec.met_deadline()) {
      ++stats_.deadline_hits;
    } else {
      ++stats_.deadline_misses;
    }
  }
  if (keep_log_) log_.insert(log_.end(), delivered_.begin(), delivered_.end());
  return delivered_;
}

SimDuration Cluster::load(ProcessorId worker, SimTime t) const {
  RTDS_REQUIRE(worker < num_workers_, "load: bad worker id");
  const SimTime horizon = workers_[worker].busy_until;
  return horizon <= t ? SimDuration::zero() : horizon - t;
}

SimDuration Cluster::min_load(SimTime t) const {
  SimDuration best = SimDuration::max();
  for (ProcessorId k = 0; k < num_workers_; ++k) {
    best = min_duration(best, load(k, t));
  }
  return best;
}

SimTime Cluster::busy_until(ProcessorId worker) const {
  RTDS_REQUIRE(worker < num_workers_, "busy_until: bad worker id");
  return workers_[worker].busy_until;
}

SimTime Cluster::makespan() const {
  SimTime latest = SimTime::zero();
  for (const Worker& w : workers_) {
    if (w.busy_until > latest) latest = w.busy_until;
  }
  return latest;
}

const std::vector<CompletionRecord>& Cluster::log() const {
  RTDS_REQUIRE(keep_log_,
               "Cluster::log: no completion log was kept (construct the "
               "cluster with CompletionLog::kKeep)");
  return log_;
}

SimDuration Cluster::busy_time(ProcessorId worker) const {
  RTDS_REQUIRE(worker < num_workers_, "busy_time: bad worker id");
  return workers_[worker].busy_time;
}

}  // namespace rtds::machine
