#include "runtime/threaded_backend.h"

#include <cmath>

#include "common/error.h"
#include "common/log.h"

namespace rtds::runtime {

ThreadedBackend::ThreadedBackend(const RuntimeConfig& config)
    : config_(config),
      net_(machine::Interconnect::cut_through(config.num_workers,
                                              config.comm_cost)),
      start_(Clock::now()),
      busy_until_(config.num_workers, SimTime::zero()) {
  RTDS_REQUIRE(config.num_workers >= 1,
               "ThreadedBackend: need >= 1 worker");
  RTDS_REQUIRE(config.time_scale > 0.0, "ThreadedBackend: bad time scale");

  mailboxes_.reserve(config_.num_workers);
  for (std::uint32_t k = 0; k < config_.num_workers; ++k) {
    mailboxes_.push_back(
        std::make_unique<BoundedQueue<WorkItem>>(config_.mailbox_capacity));
  }

  // Workers sleep for the (scaled) execution cost and judge the deadline
  // against the wall clock.
  workers_.reserve(config_.num_workers);
  for (std::uint32_t k = 0; k < config_.num_workers; ++k) {
    workers_.emplace_back([this, k] {
      while (auto item = mailboxes_[k]->pop()) {
        const auto scaled_us = std::llround(double(item->exec_cost.us) *
                                            config_.time_scale);
        std::this_thread::sleep_for(std::chrono::microseconds(scaled_us));
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
  RTDS_REQUIRE(worker < busy_until_.size(), "load: bad worker id");
  const SimTime horizon = busy_until_[worker];
  return horizon <= t ? SimDuration::zero() : horizon - t;
}

void ThreadedBackend::wait_until(SimTime t) {
  std::this_thread::sleep_until(start_ + std::chrono::microseconds(t.us));
}

void ThreadedBackend::advance(SimDuration /*host_busy*/) {
  // The wall clock already paid for the search as it ran; the virtual
  // charge SimBackend applies has no threaded counterpart.
}

sched::DeliveryResult ThreadedBackend::deliver(
    const std::vector<machine::ScheduledAssignment>& schedule) {
  sched::DeliveryResult out;
  for (const machine::ScheduledAssignment& sa : schedule) {
    const std::uint32_t k = sa.task.workers_required;
    RTDS_REQUIRE(k >= 1 && sa.worker < config_.num_workers &&
                     k <= config_.num_workers - sa.worker,
                 "deliver: gang block exceeds the machine");
    const SimDuration cost =
        sa.task.processing + net_.comm_cost(sa.task.affinity, sa.worker);
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
      overflow_drops_.fetch_add(1, std::memory_order_relaxed);
      out.undelivered.push_back(sa);
      continue;
    }
    // Lead worker judges the deadline and reports the outcome; siblings
    // get occupy-only items so the job charges k workers but counts once.
    bool pushed = mailboxes_[sa.worker]->try_push(WorkItem{sa.task, cost});
    for (std::uint32_t j = 1; j < k; ++j) {
      pushed = mailboxes_[sa.worker + j]->try_push(
                   WorkItem{sa.task, cost, /*occupy_only=*/true}) &&
               pushed;
    }
    RTDS_CHECK_MSG(pushed,
                   "deliver: reserved gang mailbox slot disappeared");
    const SimTime push_time = now();
    SimTime start = push_time;
    for (std::uint32_t j = 0; j < k; ++j) {
      if (busy_until_[sa.worker + j] > start) {
        start = busy_until_[sa.worker + j];
      }
    }
    for (std::uint32_t j = 0; j < k; ++j) {
      busy_until_[sa.worker + j] = start + cost;
    }
    ++out.accepted;
  }
  if (!out.undelivered.empty()) {
    // One aggregated warning per phase, not one per dropped task.
    RTDS_WARN << "mailbox overflow: " << out.undelivered.size() << " of "
              << schedule.size() << " assignments refused this phase "
              << "(capacity " << config_.mailbox_capacity << ", "
              << config_.delivery_retries << " retries of "
              << config_.delivery_backoff.us
              << "us); refused tasks are readmitted";
  }
  return out;
}

sched::BackendStats ThreadedBackend::drain() {
  shutdown();
  if (ledger_ != nullptr) {
    // Workers are joined: the outcome buffer is complete and quiescent.
    std::lock_guard lock(outcomes_mutex_);
    for (const Outcome& o : outcomes_) ledger_->execute(o.task, o.hit);
    outcomes_.clear();
  }
  sched::BackendStats out;
  out.deadline_hits = hits_.load();
  out.exec_misses = misses_.load();
  out.finish_time = now();
  return out;
}

void ThreadedBackend::bind_ledger(sched::TaskLedger* ledger) {
  ledger_ = ledger;
}

void ThreadedBackend::shutdown() {
  if (joined_) return;
  for (auto& mb : mailboxes_) mb->close();
  for (std::thread& w : workers_) w.join();
  joined_ = true;
}

}  // namespace rtds::runtime
