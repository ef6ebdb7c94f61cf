#include "runtime/threaded_backend.h"

#include <cmath>

#include "common/error.h"

namespace rtds::runtime {

namespace {

/// Wall time a worker sleeps to execute `cost` at `time_scale`.
SimDuration scaled(SimDuration cost, double time_scale) {
  return usec(std::llround(double(cost.us) * time_scale));
}

}  // namespace

ThreadedBackend::ThreadedBackend(const RuntimeConfig& config)
    : config_(config),
      net_(machine::Interconnect::cut_through(config.num_workers,
                                              config.comm_cost)),
      cluster_(config.num_workers,
               machine::Interconnect::cut_through(config.num_workers,
                                                  SimDuration::zero())),
      start_(Clock::now()) {
  RTDS_REQUIRE(config.num_workers >= 1,
               "ThreadedBackend: need >= 1 worker");
  RTDS_REQUIRE(config.time_scale > 0.0, "ThreadedBackend: bad time scale");

  mailboxes_.reserve(config_.num_workers);
  for (std::uint32_t k = 0; k < config_.num_workers; ++k) {
    mailboxes_.push_back(
        std::make_unique<BoundedQueue<WorkItem>>(config_.mailbox_capacity));
  }

  // Workers wait for the task's earliest start, sleep for the (scaled)
  // execution cost and judge the deadline against the wall clock.
  workers_.reserve(config_.num_workers);
  for (std::uint32_t k = 0; k < config_.num_workers; ++k) {
    workers_.emplace_back([this, k] {
      while (auto item = mailboxes_[k]->pop()) {
        std::this_thread::sleep_until(
            start_ + std::chrono::microseconds(item->task.earliest_start.us));
        std::this_thread::sleep_for(
            std::chrono::microseconds(item->sleep.us));
        if (item->occupy_only) continue;
        const SimTime end = now();
        const bool hit = end <= item->task.deadline;
        if (hit) {
          hits_.fetch_add(1, std::memory_order_relaxed);
        } else {
          misses_.fetch_add(1, std::memory_order_relaxed);
        }
        std::lock_guard lock(outcomes_mutex_);
        outcomes_.push_back({item->task.id, hit});
      }
    });
  }
}

ThreadedBackend::~ThreadedBackend() { shutdown(); }

std::uint32_t ThreadedBackend::num_workers() const {
  return config_.num_workers;
}

const machine::Interconnect& ThreadedBackend::interconnect() const {
  return net_;
}

SimTime ThreadedBackend::now() const {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - start_)
                      .count();
  return SimTime{us};
}

SimDuration ThreadedBackend::load(std::uint32_t worker, SimTime t) const {
  return cluster_.load(worker, t);
}

void ThreadedBackend::wait_until(SimTime t) {
  std::this_thread::sleep_until(start_ + std::chrono::microseconds(t.us));
  report_outcomes();
}

void ThreadedBackend::advance(SimDuration /*host_busy*/) {
  // The wall clock already paid for the search as it ran; the virtual
  // charge SimBackend applies has no threaded counterpart.
  report_outcomes();
}

sched::DeliveryResult ThreadedBackend::deliver(
    const std::vector<machine::ScheduledAssignment>& schedule) {
  sched::DeliveryResult out;
  planned_.clear();
  for (const machine::ScheduledAssignment& sa : schedule) {
    const std::uint32_t k = sa.task.workers_required;
    RTDS_REQUIRE(k >= 1 && sa.worker < config_.num_workers &&
                     k <= config_.num_workers - sa.worker,
                 "deliver: gang block exceeds the machine");
    const SimDuration sleep = scaled(
        sa.task.processing + net_.comm_cost(sa.task.affinity, sa.worker),
        config_.time_scale);
    // A gang is handed to its k mailboxes atomically or refused whole. The
    // host is the sole producer, so free slots observed across the block
    // cannot shrink before the pushes below — checking first gives
    // all-or-nothing without any rollback. A full mailbox is retried
    // briefly — a worker popping its next item frees a slot within
    // microseconds — but the total wait is bounded: the host must never
    // hang behind a stuck worker.
    const auto block_free = [&] {
      for (std::uint32_t j = 0; j < k; ++j) {
        if (mailboxes_[sa.worker + j]->free_slots() == 0) return false;
      }
      return true;
    };
    bool room = block_free();
    for (std::uint32_t attempt = 0;
         !room && attempt < config_.delivery_retries; ++attempt) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(config_.delivery_backoff.us));
      room = block_free();
    }
    if (!room) {
      out.undelivered.push_back(sa);
      continue;
    }
    // Lead worker judges the deadline and reports the outcome; siblings
    // get occupy-only items so the job charges k workers but counts once.
    bool pushed = mailboxes_[sa.worker]->try_push(WorkItem{sa.task, sleep});
    for (std::uint32_t j = 1; j < k; ++j) {
      pushed = mailboxes_[sa.worker + j]->try_push(
                   WorkItem{sa.task, sleep, /*occupy_only=*/true}) &&
               pushed;
    }
    RTDS_CHECK_MSG(pushed,
                   "deliver: reserved gang mailbox slot disappeared");
    // The horizon is planned at the sleep itself: the cluster prices no
    // communication and executes the worst-case processing it is given.
    machine::ScheduledAssignment& plan = planned_.emplace_back(sa);
    plan.task.processing = sleep;
    plan.task.actual_processing = SimDuration::zero();
  }
  cluster_.deliver(planned_, now());
  // Refused assignments are readmitted by the pipeline and counted in
  // PhaseRecord::overflow_drops and RunMetrics::overflow_drops.
  out.accepted = planned_.size();
  return out;
}

sched::BackendStats ThreadedBackend::drain() {
  shutdown();
  report_outcomes();  // workers are joined: this is the last of them
  sched::BackendStats out;
  out.deadline_hits = hits_.load();
  out.exec_misses = misses_.load();
  out.finish_time = now();
  return out;
}

void ThreadedBackend::bind_ledger(sched::TaskLedger* ledger) {
  ledger_ = ledger;
}

void ThreadedBackend::report_outcomes() {
  {
    std::lock_guard lock(outcomes_mutex_);
    reporting_.swap(outcomes_);
  }
  if (ledger_ != nullptr) {
    for (const sched::ExecutionOutcome& o : reporting_) {
      ledger_->execute(o.task, o.hit);
    }
  }
  reporting_.clear();
}

void ThreadedBackend::shutdown() {
  if (joined_) return;
  for (auto& mb : mailboxes_) mb->close();
  for (std::thread& w : workers_) w.join();
  joined_ = true;
}

}  // namespace rtds::runtime
