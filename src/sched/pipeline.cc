#include "sched/pipeline.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/error.h"
#include "search/engine.h"
#include "tasks/batch.h"

namespace rtds::sched {
namespace {

/// A phase's share of host time: its quantum Q_s, whether the progress
/// floor raised it, and the vertex budget it buys.
struct Allocation {
  SimDuration quantum;
  bool floor_override;
  std::uint64_t budget;
};

/// Q_s(j) from the Fig. 3 criterion (or the fixed-quantum ablation). The
/// quantum must cover the fixed per-phase overhead plus at least one vertex
/// generation, or the phase could make no progress. Raising it can push Q_s
/// past max_quantum and past the paper's Q_s <= max(Min_Slack, Min_Load)
/// bound, so the override is counted and surfaced in the trace rather than
/// applied silently.
Allocation allocate(const QuantumPolicy& policy, const PipelineConfig& config,
                    SimDuration min_slack, SimDuration min_load) {
  Allocation a{policy.allocate(min_slack, min_load), false, 0};
  const SimDuration quantum_floor =
      config.phase_overhead + config.vertex_generation_cost;
  if (a.quantum < quantum_floor) {
    a.quantum = quantum_floor;
    a.floor_override = true;
  }
  a.budget = static_cast<std::uint64_t>(
      (a.quantum - config.phase_overhead) / config.vertex_generation_cost);
  return a;
}

/// Adds one phase's quantum, search stats and host time to the run's sums.
void count_phase(RunMetrics& metrics, const Allocation& a,
                 const search::SearchStats& stats, SimDuration spent) {
  metrics.phases += 1;
  metrics.quantum_floor_overrides += a.floor_override ? 1 : 0;
  metrics.vertices_generated += stats.vertices_generated;
  metrics.expansions += stats.expansions;
  metrics.backtracks += stats.backtracks;
  metrics.dead_ends += stats.dead_end ? 1 : 0;
  metrics.leaves += stats.reached_leaf ? 1 : 0;
  metrics.budget_exhaustions += stats.budget_exhausted ? 1 : 0;
  metrics.scheduling_time += spent;
  metrics.allocated_quantum += a.quantum;
  metrics.min_quantum_seen = min_duration(metrics.min_quantum_seen, a.quantum);
  metrics.max_quantum_seen = max_duration(metrics.max_quantum_seen, a.quantum);
}

/// A phase whose search returned an empty schedule without exhausting its
/// budget, with the inputs the phases that repeat it are computed from.
struct FutilePhase {
  SimTime start;         ///< t_s
  SimDuration min_load;  ///< Min_Load, read at t_s
  SimTime delivery;      ///< t_s + Q_s, the delivery time it was proven at
  SimDuration spent;     ///< host time, which every repeat charges again
  search::SearchStats stats;
};

/// Counts, from `futile.start + futile.spent` on, the phases that would
/// repeat `futile` over the unchanged `batch`, and returns the start of the
/// first one that might not. Nothing is delivered, so every horizon stays
/// where `futile` read it: Min_Load is futile.min_load minus the time
/// elapsed. Each phase's delivery time is no earlier than futile.delivery
/// and its budget covers the recorded vertices, so by the algorithm's
/// futile_answer_persists() its search answers empty with futile.stats.
/// The run stops before a phase that would merge an arrival (`next_arrival`
/// is at or before it), cull a task (Min_Slack < 0), pass a pending task's
/// earliest start (where that task's slack starts to fall), get a budget
/// below the recorded vertices, or deliver earlier than futile.delivery
/// (which neither built-in quantum policy does: t + Q_s never decreases).
/// It reads the set's tasks once and never the search's root.
SimTime skip_futile_phases(const QuantumPolicy& policy,
                           const PipelineConfig& config,
                           const FutilePhase& futile,
                           const tasks::Batch& batch,
                           std::optional<SimTime> next_arrival,
                           RunMetrics& metrics, PhaseObserver* observer) {
  const SimTime from = futile.start + futile.spent;
  // One read of the tasks. A task whose earliest start has passed has
  // slack (d - p) - t, falling 1:1 with t; the slack of one still waiting
  // is d - e - p, constant until t passes e.
  std::int64_t started_key = SimTime::max().us;  // min d - p, started tasks
  std::int64_t waiting_slack = SimDuration::max().us;
  std::int64_t first_start = SimTime::max().us;  // earliest start ahead
  for (const Task& task : batch.tasks()) {
    const std::int64_t d = task.deadline.us;
    const std::int64_t p = task.processing.us;
    const std::int64_t e = task.earliest_start.us;
    if (e > from.us) {
      waiting_slack = std::min(waiting_slack, d - e - p);
      first_start = std::min(first_start, e);
    } else {
      started_key = std::min(started_key, d - p);
    }
  }
  PhaseRecord record;
  if (observer != nullptr) {
    record.algorithm = metrics.algorithm;
    record.batch_size = batch.size();
    record.search = futile.stats;
  }
  SimTime t = from;
  while (!(next_arrival.has_value() && *next_arrival <= t) &&
         t.us <= first_start) {
    const SimDuration min_slack{std::min(waiting_slack, started_key - t.us)};
    if (min_slack.is_negative()) break;
    const SimDuration min_load =
        max_duration(SimDuration::zero(), futile.min_load - (t - futile.start));
    const Allocation a = allocate(policy, config, min_slack, min_load);
    if (a.budget < futile.stats.vertices_generated ||
        t + a.quantum < futile.delivery) {
      break;
    }
    count_phase(metrics, a, futile.stats, futile.spent);
    if (observer != nullptr) {
      record.index = metrics.phases - 1;
      record.start = t;
      record.end = t + futile.spent;
      record.min_slack = min_slack;
      record.min_load = min_load;
      record.quantum = a.quantum;
      record.vertex_budget = a.budget;
      record.quantum_floor_override = a.floor_override;
      observer->on_phase(record);
    }
    t += futile.spent;
  }
  return t;
}

/// What became of a delivery slot.
enum class Fate : std::uint8_t { kAccepted, kRejected, kReadmitted };

/// The buffers a run keeps from phase to phase: its ledger, its pending
/// set and the per-phase vectors, declared once so each phase reuses their
/// capacity. A steady-state phase makes no heap allocation of its own.
struct RunBuffers {
  TaskLedger ledger;
  /// The one pending set: kept in the order the algorithm considers tasks
  /// in; its search and the phase loop read the tasks in place
  /// (tasks/batch.h).
  tasks::Batch batch{tasks::TaskOrder::kBatchOrder};
  std::vector<Task> arrived;
  std::vector<tasks::TaskId> culled;
  std::vector<SimDuration> loads;  // Load_k(t_s)
  // schedule_pending borrows it by const reference.
  std::vector<SimDuration> base_loads;
  std::vector<machine::ScheduledAssignment> delivery;
  // What became of each delivery slot, and the batch positions retired.
  std::vector<Fate> fates;
  std::vector<std::uint32_t> retired;

  [[nodiscard]] std::size_t footprint_bytes() const {
    const auto bytes = [](const auto& v) {
      return v.capacity() * sizeof(v[0]);
    };
    return ledger.footprint_bytes() + batch.footprint_bytes() +
           bytes(arrived) + bytes(culled) + bytes(loads) + bytes(base_loads) +
           bytes(delivery) + bytes(fates) + bytes(retired);
  }
};

/// The thread's idle run buffers. A run takes them and leaves the slot
/// empty, so a run nested inside it (from an observer, on the same thread)
/// grows buffers of its own; back-to-back runs reuse one set.
RunBuffers& thread_run_buffers() {
  static thread_local RunBuffers slot;
  return slot;
}

/// Borrows the thread's run buffers for one run and gives them back,
/// emptied, however the run ends — unless they grew past the retention
/// bound the search workspace keeps, in which case they are released.
class BorrowedBuffers {
 public:
  BorrowedBuffers() : buffers_(std::exchange(thread_run_buffers(), {})) {}
  BorrowedBuffers(const BorrowedBuffers&) = delete;
  BorrowedBuffers& operator=(const BorrowedBuffers&) = delete;
  ~BorrowedBuffers() {
    if (buffers_.footprint_bytes() > search::kWorkspaceRetainBytes) return;
    buffers_.ledger.clear();
    buffers_.batch.clear();
    thread_run_buffers() = std::move(buffers_);
  }

  RunBuffers& operator*() { return buffers_; }

 private:
  RunBuffers buffers_;
};

}  // namespace

PhasePipeline::PhasePipeline(const PhaseAlgorithm& algorithm,
                             const QuantumPolicy& quantum,
                             PipelineConfig config)
    : algorithm_(algorithm), quantum_(quantum), config_(config) {
  RTDS_REQUIRE(config_.vertex_generation_cost > SimDuration::zero(),
               "PhasePipeline: vertex cost must be positive");
  RTDS_REQUIRE(!config_.phase_overhead.is_negative(),
               "PhasePipeline: negative phase overhead");
  RTDS_REQUIRE(!config_.delivery_backpressure.is_negative(),
               "PhasePipeline: negative delivery backpressure");
}

RunMetrics PhasePipeline::run(const std::vector<Task>& workload,
                              ExecutionBackend& backend,
                              PhaseObserver* observer,
                              TaskLedger* external_ledger) const {
  for (std::size_t i = 1; i < workload.size(); ++i) {
    RTDS_REQUIRE(workload[i - 1].arrival <= workload[i].arrival,
                 "PhasePipeline: workload must be sorted by arrival");
  }
  tasks::VectorArrivalSource source(workload);
  // Closed run == open run over the exhaustible vector source, with
  // admission control off and no latency accounting.
  return run_core(source, backend, StreamOptions{}, nullptr, observer,
                  external_ledger);
}

RunMetrics PhasePipeline::run_stream(tasks::ArrivalSource& source,
                                     ExecutionBackend& backend,
                                     const StreamOptions& options,
                                     StreamStats* stats,
                                     PhaseObserver* observer,
                                     TaskLedger* external_ledger) const {
  return run_core(source, backend, options, stats, observer, external_ledger);
}

RunMetrics PhasePipeline::run_core(tasks::ArrivalSource& source,
                                   ExecutionBackend& backend,
                                   const StreamOptions& options,
                                   StreamStats* stats,
                                   PhaseObserver* observer,
                                   TaskLedger* external_ledger) const {
  RunMetrics metrics;
  metrics.algorithm = algorithm_.name();

  const std::optional<SimTime> first_arrival = source.peek();
  if (!first_arrival.has_value()) {
    metrics.finish_time = backend.now();
    return metrics;
  }

  // The run's buffers come from the thread and go back to it, emptied, so
  // back-to-back runs do not grow them again.
  BorrowedBuffers borrowed;
  RunBuffers& buffers = *borrowed;
  // Every run keeps a ledger — conservation is enforced, not opt-in. The
  // backend reports into it at every clock call, so it is detached however
  // the run ends, by return or by exception.
  TaskLedger& ledger = external_ledger ? *external_ledger : buffers.ledger;
  backend.bind_ledger(&ledger);
  struct Unbind {
    ExecutionBackend& backend;
    ~Unbind() { backend.bind_ledger(nullptr); }
  } const unbind{backend};

  tasks::Batch& batch = buffers.batch;
  batch.reset(algorithm_.pending_order());
  const SimDuration vcost = config_.vertex_generation_cost;
  // Both answers are false unless declared (sched/backend.h,
  // sched/algorithm.h): a decorator that forwards neither keeps the run on
  // the phase-by-phase loop.
  const bool fast_forward =
      backend.analytic_loads() && algorithm_.futile_answer_persists();
  const std::uint32_t num_workers = backend.num_workers();
  std::vector<Task>& arrived = buffers.arrived;
  std::vector<tasks::TaskId>& culled = buffers.culled;
  std::vector<SimDuration>& loads = buffers.loads;
  std::vector<SimDuration>& base_loads = buffers.base_loads;
  loads.assign(num_workers, SimDuration::zero());
  base_loads.assign(num_workers, SimDuration::zero());
  std::vector<machine::ScheduledAssignment>& delivery = buffers.delivery;
  std::vector<Fate>& fates = buffers.fates;
  std::vector<std::uint32_t>& retired = buffers.retired;

  // Nothing to do before the first arrival.
  backend.wait_until(*first_arrival);

  while (true) {
    const SimTime t = backend.now();

    // Form Batch(j): pull tasks that arrived up to now from the source
    // (through admission control), merge them, cull unreachable.
    arrived.clear();
    std::uint64_t admission_rejected_now = 0;
    while (true) {
      const std::optional<SimTime> next_arrival = source.peek();
      if (!next_arrival.has_value() || *next_arrival > t) break;
      Task task = source.next();
      ledger.arrive(task.id);
      metrics.total_tasks += 1;
      if (options.max_pending != 0 &&
          batch.size() + arrived.size() >= options.max_pending) {
        // Full house: turn the task away at the door. Rejecting the NEW
        // arrival (rather than evicting a pending task) keeps admission
        // decisions final — no admitted task is ever un-admitted.
        ledger.reject_admission(task.id);
        metrics.admission_rejected += 1;
        admission_rejected_now += 1;
        continue;
      }
      ledger.admit(task.id);
      arrived.push_back(std::move(task));
    }
    batch.merge_arrivals(arrived);
    // One read of the batch culls it and yields the survivors' Min_Slack.
    const SimDuration min_slack = batch.cull_missed(t, culled);
    for (const tasks::TaskId id : culled) ledger.cull(id);
    metrics.culled += culled.size();
    const std::size_t batch_size = batch.size();

    if (batch.empty()) {
      const std::optional<SimTime> next_arrival = source.peek();
      if (!next_arrival.has_value()) break;  // pipeline drained
      // Sleep until the next arrival.
      backend.wait_until(*next_arrival);
      continue;
    }

    RTDS_ASSERT_MSG(!min_slack.is_negative(),
                    "unreachable task survived culling");
    // Each worker's load is read once: it feeds Min_Load here and the
    // delivery-time residuals below.
    SimDuration min_load = SimDuration::max();
    for (std::uint32_t k = 0; k < num_workers; ++k) {
      loads[k] = backend.load(k, t);
      min_load = min_duration(min_load, loads[k]);
    }
    const Allocation allocation =
        allocate(quantum_, config_, min_slack, min_load);
    const SimDuration quantum = allocation.quantum;

    // Worker loads as seen at the planned delivery time t_s + Q_s: the
    // workers drain previous schedules while this phase runs (Sec. 4.4).
    const SimTime planned_delivery = t + quantum;
    for (std::uint32_t k = 0; k < num_workers; ++k) {
      base_loads[k] =
          loads[k] <= quantum ? SimDuration::zero() : loads[k] - quantum;
    }

    // The search's host time is only for the phase record: the clock is
    // read when an observer is attached, and not otherwise.
    std::chrono::steady_clock::time_point search_start;
    if (observer != nullptr) search_start = std::chrono::steady_clock::now();
    const SearchResult result = algorithm_.schedule_pending(
        batch, base_loads, planned_delivery, backend.interconnect(),
        allocation.budget);
    std::uint64_t search_wall_ns = 0;
    if (observer != nullptr) {
      search_wall_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - search_start)
              .count());
    }

    // The host was busy for the vertices it generated plus the fixed
    // turnover/delivery overhead.
    SimDuration spent = vcost * std::int64_t(result.stats.vertices_generated);
    if (spent.is_zero()) spent = vcost;  // defensive: always advance time
    spent += config_.phase_overhead;
    RTDS_ASSERT(spent <= quantum);
    const SimTime phase_end = t + spent;
    count_phase(metrics, allocation, result.stats, spent);

    // Materialize S_j against the pending set: delivery slot i holds
    // result.schedule[i]. The scheduled tasks are retired from the batch
    // only after deliver() reports which of them the backend actually
    // accepted — a refused assignment must not disappear.
    delivery.clear();
    for (const search::Assignment& a : result.schedule) {
      const Task& task = batch.tasks()[a.task_index];
      delivery.push_back({task, a.worker});
      ledger.schedule(task.id);
    }

    // Charge the host time, then deliver S_j at t_e and start phase j+1.
    backend.advance(spent);
    const DeliveryResult delivered = backend.deliver(delivery);
    metrics.scheduled += delivered.accepted;
    metrics.overflow_drops += delivered.undelivered.size();

    // Settle each refused slot. A refused task with attempts remaining
    // stays pending — that is the readmission path — so a later phase
    // schedules it again; one whose delivery budget is spent leaves the
    // pipeline for good. The ledger counts each task's refusals so far.
    fates.assign(delivery.size(), Fate::kAccepted);
    std::uint64_t readmitted_now = 0;
    std::uint64_t rejected_now = 0;
    SimDuration min_refused_load = SimDuration::max();
    std::size_t slot = 0;
    for (const machine::ScheduledAssignment& refused :
         delivered.undelivered) {
      // Backends report refusals in schedule order, or as a few ordered
      // runs, so resuming the scan at the previous match keeps it linear.
      std::size_t scanned = 0;
      while (scanned < delivery.size() &&
             delivery[slot].task.id != refused.task.id) {
        slot = (slot + 1) % delivery.size();
        ++scanned;
      }
      RTDS_CHECK_MSG(scanned < delivery.size(),
                     "deliver() refused an assignment it was not given");
      if (config_.max_delivery_attempts != 0 &&
          ledger.refusals(refused.task.id) + 1 >=
              config_.max_delivery_attempts) {
        ledger.reject(refused.task.id);
        metrics.rejected += 1;
        rejected_now += 1;
        fates[slot] = Fate::kRejected;
        continue;
      }
      ledger.drop(refused.task.id);
      fates[slot] = Fate::kReadmitted;
      metrics.readmissions += 1;
      readmitted_now += 1;
      min_refused_load = min_duration(
          min_refused_load, backend.load(refused.worker, backend.now()));
    }
    // Retire from the batch exactly the tasks that left the pipeline:
    // accepted deliveries and rejected ones. The accepted deliveries are
    // where schedule latency is measured: the clock now reads t_e, the
    // instant S_j landed in the worker ready queues.
    retired.clear();
    for (std::size_t i = 0; i < delivery.size(); ++i) {
      if (fates[i] == Fate::kReadmitted) continue;
      retired.push_back(result.schedule[i].task_index);
      if (fates[i] == Fate::kRejected) continue;
      const Task& task = delivery[i].task;
      ledger.deliver(task.id);
      if (stats != nullptr) {
        stats->schedule_latency.add(
            static_cast<std::uint64_t>((backend.now() - task.arrival).us));
      }
    }
    std::sort(retired.begin(), retired.end());
    batch.remove_scheduled(retired);

    if (observer != nullptr) {
      PhaseRecord record;
      record.algorithm = metrics.algorithm;
      record.index = metrics.phases - 1;  // this phase, counted above
      record.start = t;
      record.arrivals = arrived.size();
      record.culled = culled.size();
      record.admission_rejected = admission_rejected_now;
      record.batch_size = batch_size;
      record.end = phase_end;
      record.min_slack = min_slack;
      record.min_load = min_load;
      record.quantum = quantum;
      record.vertex_budget = allocation.budget;
      record.quantum_floor_override = allocation.floor_override;
      record.search = result.stats;
      record.search_wall_ns = search_wall_ns;
      record.scheduled = result.schedule.size();
      record.delivered = delivered.accepted;
      record.overflow_drops = delivered.undelivered.size();
      record.readmitted = readmitted_now;
      record.rejected = rejected_now;
      observer->on_phase(record);
    }

    // Backpressure: when delivery was refused, pause before rescheduling so
    // the saturated workers drain instead of the host burning the refused
    // tasks' delivery budgets in a hot loop. Wait at least the configured
    // floor, at most until the least-loaded refused worker would be idle,
    // and never longer than the batch's min slack (waiting must not by
    // itself make a pending task unreachable).
    if (readmitted_now > 0 && !config_.delivery_backpressure.is_zero()) {
      // Floor first, slack cap last: the cap is the safety bound and must
      // win when the configured floor exceeds the batch's min slack.
      SimDuration pause =
          max_duration(min_refused_load, config_.delivery_backpressure);
      if (!batch.empty()) {
        pause = min_duration(pause, batch.min_slack(backend.now()));
      }
      backend.wait_until(backend.now() + pause);
      metrics.backpressure_waits += 1;
    }

    // A proven-futile phase: until an arrival, a cull or a budget cut, the
    // phases after it repeat it exactly, so they are counted, not run
    // (docs/ARCHITECTURE.md, "Futile runs are fast-forwarded"). Nothing was
    // delivered, so the clock reads phase_end.
    if (fast_forward && result.schedule.empty() &&
        !result.stats.budget_exhausted) {
      const SimTime resume = skip_futile_phases(
          quantum_, config_,
          {t, min_load, planned_delivery, spent, result.stats}, batch,
          source.peek(), metrics, observer);
      if (resume > phase_end) backend.advance(resume - phase_end);
    }
  }

  const BackendStats finals = backend.drain();
  metrics.deadline_hits = finals.deadline_hits;
  metrics.exec_misses = finals.exec_misses;
  metrics.finish_time = finals.finish_time;
  RTDS_ASSERT(metrics.scheduled ==
              metrics.deadline_hits + metrics.exec_misses);

  // Task conservation: every offered task is in exactly one terminal state
  // and the ledger agrees with the aggregate metrics.
  ledger.check_conserved();
  const LedgerCounts& counts = ledger.counts();
  RTDS_ASSERT(counts.total == metrics.total_tasks);
  RTDS_ASSERT(counts.deadline_hits == metrics.deadline_hits);
  RTDS_ASSERT(counts.exec_misses == metrics.exec_misses);
  RTDS_ASSERT(counts.culled == metrics.culled);
  RTDS_ASSERT(counts.rejected == metrics.rejected);
  RTDS_ASSERT(counts.admission_rejected == metrics.admission_rejected);
  RTDS_ASSERT(metrics.total_tasks ==
              metrics.deadline_hits + metrics.exec_misses + metrics.culled +
                  metrics.rejected + metrics.admission_rejected);
  return metrics;
}

}  // namespace rtds::sched
