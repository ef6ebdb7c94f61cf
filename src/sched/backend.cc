#include "sched/backend.h"

namespace rtds::sched {

SimBackend::SimBackend(machine::Cluster& cluster, sim::Simulator& sim)
    : cluster_(cluster),
      sim_(sim),
      initial_(cluster.stats()),
      initial_log_size_(cluster.log().size()) {}

std::uint32_t SimBackend::num_workers() const {
  return cluster_.num_workers();
}

const machine::Interconnect& SimBackend::interconnect() const {
  return cluster_.interconnect();
}

SimTime SimBackend::now() const { return sim_.now(); }

SimDuration SimBackend::load(std::uint32_t worker, SimTime t) const {
  return cluster_.load(worker, t);
}

void SimBackend::wait_until(SimTime t) {
  if (t > sim_.now()) sim_.advance_to(t);
}

void SimBackend::advance(SimDuration host_busy) {
  sim_.advance_to(sim_.now() + host_busy);
}

DeliveryResult SimBackend::deliver(
    const std::vector<machine::ScheduledAssignment>& schedule) {
  cluster_.deliver(schedule, sim_.now());
  return DeliveryResult{schedule.size(), {}};  // unbounded queues: no refusals
}

BackendStats SimBackend::drain() {
  if (ledger_ != nullptr) {
    // Per-task terminal outcomes: everything the cluster executed during
    // this run (clusters may be reused; skip pre-existing log entries).
    const auto& log = cluster_.log();
    for (std::size_t i = initial_log_size_; i < log.size(); ++i) {
      ledger_->execute(log[i].task, log[i].met_deadline());
    }
  }
  const machine::ExecutionStats finals = cluster_.stats();
  BackendStats out;
  out.deadline_hits = finals.deadline_hits - initial_.deadline_hits;
  out.exec_misses = finals.deadline_misses - initial_.deadline_misses;
  out.finish_time =
      cluster_.makespan() > sim_.now() ? cluster_.makespan() : sim_.now();
  return out;
}

void SimBackend::bind_ledger(TaskLedger* ledger) { ledger_ = ledger; }

}  // namespace rtds::sched
