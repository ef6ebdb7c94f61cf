#include "sched/backend.h"

namespace rtds::sched {

SimBackend::SimBackend(machine::Cluster& cluster, sim::Simulator& sim)
    : cluster_(cluster), sim_(sim), initial_(cluster.stats()) {}

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
  report_outcomes();
  if (t > sim_.now()) sim_.advance_to(t);
}

void SimBackend::advance(SimDuration host_busy) {
  report_outcomes();
  sim_.advance_to(sim_.now() + host_busy);
}

DeliveryResult SimBackend::deliver(
    const std::vector<machine::ScheduledAssignment>& schedule) {
  const auto records = cluster_.deliver(schedule, sim_.now());
  if (ledger_ != nullptr) {
    for (const machine::CompletionRecord& rec : records) {
      unreported_.push_back({rec.task, rec.met_deadline()});
    }
  }
  return DeliveryResult{schedule.size(), {}};  // unbounded queues: no refusals
}

BackendStats SimBackend::drain() {
  report_outcomes();
  const machine::ExecutionStats finals = cluster_.stats();
  BackendStats out;
  out.deadline_hits = finals.deadline_hits - initial_.deadline_hits;
  out.exec_misses = finals.deadline_misses - initial_.deadline_misses;
  out.finish_time =
      cluster_.makespan() > sim_.now() ? cluster_.makespan() : sim_.now();
  return out;
}

void SimBackend::bind_ledger(TaskLedger* ledger) { ledger_ = ledger; }

void SimBackend::report_outcomes() {
  if (ledger_ != nullptr) {
    for (const ExecutionOutcome& o : unreported_) {
      ledger_->execute(o.task, o.hit);
    }
  }
  unreported_.clear();
}

}  // namespace rtds::sched
