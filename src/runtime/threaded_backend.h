// Live threaded ExecutionBackend: real worker threads on the wall clock.
//
// This is the deployment glue that lets the ONE phase pipeline
// (sched/pipeline.h) drive actual concurrency: m worker threads drain
// their ready-queue mailboxes, "executing" each task by waiting for its
// earliest start and then sleeping for its execution cost (optionally
// scaled), and deadlines are judged against the wall clock — so a run
// experiences real scheduling overhead, queueing and jitter. The DES
// (SimBackend) remains the instrument for the paper's figures; this
// backend exists to demonstrate the scheduler driving real threads and is
// exercised by integration tests with generous margins.
//
// Time mapping: the wall clock is projected onto SimTime microseconds since
// backend construction. advance() charges nothing — the search that just
// ran consumed real host time already, which is exactly the quantity the
// DES charges synthetically. Like wait_until() and drain(), it reports the
// outcomes the workers judged since the last such call to the ledger.
//
// Overflow policy: delivery into a full mailbox is retried a few times
// with a short bounded backoff, then refused loudly — the refusal is
// counted, reported back to the pipeline by task identity (readmission),
// and summarized in one warning per phase — instead of blocking the host
// thread indefinitely behind a slow worker; see
// RuntimeConfig::mailbox_capacity / delivery_retries / delivery_backoff.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/time.h"
#include "machine/cluster.h"
#include "machine/interconnect.h"
#include "runtime/bounded_queue.h"
#include "sched/backend.h"
#include "tasks/task.h"

namespace rtds::runtime {

struct RuntimeConfig {
  std::uint32_t num_workers{4};
  SimDuration comm_cost{msec(2)};
  /// Execution sleep = execution cost * time_scale. Values < 1 shrink the
  /// wall time of demos; 1.0 executes in real time.
  double time_scale{1.0};
  /// Ready-queue depth per worker. Deliveries beyond this are refused and
  /// counted (RunMetrics::overflow_drops), never blocked on indefinitely;
  /// the pipeline readmits refused tasks into the next batch.
  std::size_t mailbox_capacity{1024};
  /// On a full mailbox the host retries the push this many times, sleeping
  /// `delivery_backoff` between attempts, before declaring the drop. The
  /// total wait is bounded by delivery_retries * delivery_backoff, so a
  /// stuck worker can only stall the host briefly. 0 = drop immediately.
  std::uint32_t delivery_retries{3};
  SimDuration delivery_backoff{usec(100)};
};

/// ExecutionBackend over std::thread workers + bounded mailboxes.
///
/// Construction spawns the workers; drain() (or destruction) closes the
/// mailboxes and joins them. One backend instance serves one pipeline run.
class ThreadedBackend final : public sched::ExecutionBackend {
 public:
  explicit ThreadedBackend(const RuntimeConfig& config);
  ~ThreadedBackend() override;

  ThreadedBackend(const ThreadedBackend&) = delete;
  ThreadedBackend& operator=(const ThreadedBackend&) = delete;

  [[nodiscard]] std::uint32_t num_workers() const override;
  [[nodiscard]] const machine::Interconnect& interconnect() const override;
  [[nodiscard]] SimTime now() const override;
  [[nodiscard]] SimDuration load(std::uint32_t worker,
                                 SimTime t) const override;
  void wait_until(SimTime t) override;
  void advance(SimDuration host_busy) override;
  sched::DeliveryResult deliver(
      const std::vector<machine::ScheduledAssignment>& schedule) override;
  sched::BackendStats drain() override;
  void bind_ledger(sched::TaskLedger* ledger) override;

 private:
  struct WorkItem {
    tasks::Task task;
    /// Wall time to execute: the cost p + c times time_scale, rounded.
    SimDuration sleep;
    /// Gang sibling: occupy the worker for `sleep` but record no outcome
    /// — the lead worker's item alone judges the deadline and reports to
    /// the ledger, so a k-worker job stays ONE task in every count.
    bool occupy_only{false};
  };
  using Clock = std::chrono::steady_clock;

  void shutdown();  // close mailboxes + join workers; idempotent
  /// Hands the outcomes the workers buffered so far to the bound ledger,
  /// on the host thread.
  void report_outcomes();

  RuntimeConfig config_;
  /// What interconnect() returns and the search prices: unscaled costs.
  machine::Interconnect net_;
  /// The committed-completion horizons behind load(): the DES's own block
  /// and start-time rules, fed the wall-clock delivery time and each
  /// task's scaled sleep as its cost (so no communication cost of its
  /// own). Host-thread-only.
  machine::Cluster cluster_;
  /// The accepted assignments of the current deliver(), each task's
  /// processing replaced by the wall time its worker sleeps.
  std::vector<machine::ScheduledAssignment> planned_;
  Clock::time_point start_;

  std::vector<std::unique_ptr<BoundedQueue<WorkItem>>> mailboxes_;
  std::vector<std::thread> workers_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  /// Per-task outcomes, judged by the workers against the wall clock and
  /// buffered here until the host reports them to the bound ledger at its
  /// next advance(), wait_until() or drain() — the ledger itself stays
  /// host-thread-only.
  std::mutex outcomes_mutex_;
  std::vector<sched::ExecutionOutcome> outcomes_;
  /// Host-side swap partner of outcomes_: the host reports from it without
  /// holding the lock, and both keep their capacity.
  std::vector<sched::ExecutionOutcome> reporting_;
  sched::TaskLedger* ledger_{nullptr};
  bool joined_{false};
};

}  // namespace rtds::runtime
