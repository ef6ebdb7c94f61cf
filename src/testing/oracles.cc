#include "testing/oracles.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

namespace rtds::testing {
namespace {

void violation(std::vector<std::string>& out, const std::string& oracle,
               const std::string& backend, const std::string& detail) {
  out.push_back(oracle + "(" + backend + "): " + detail);
}

template <typename T>
void expect_eq(std::vector<std::string>& out, const std::string& oracle,
               const std::string& backend, const char* what, T actual,
               T expected) {
  if (actual == expected) return;
  std::ostringstream os;
  os << what << " = " << actual << ", expected " << expected;
  violation(out, oracle, backend, os.str());
}

}  // namespace

const std::vector<std::string>& oracle_names() {
  static const std::vector<std::string> names = {
      "correction-theorem", "conservation",    "schedule-validity",
      "quantum-bound",      "threaded-parity", "stream-accounting",
      "gang-occupancy",     "fast-forward-parity",
  };
  return names;
}

void oracle_correction_theorem(const BackendRun& run,
                               std::vector<std::string>& out) {
  if (run.metrics.exec_misses != 0) {
    std::ostringstream os;
    os << run.metrics.exec_misses << " task(s) missed their deadline DURING "
       << "execution — a committed schedule must never miss (Sec. 4.3)";
    violation(out, "correction-theorem", run.name, os.str());
  }
  if (run.has_ledger && run.ledger.exec_misses != 0) {
    std::ostringstream os;
    os << "ledger records " << run.ledger.exec_misses << " exec misses";
    violation(out, "correction-theorem", run.name, os.str());
  }
}

void oracle_conservation(const BackendRun& run,
                         std::vector<std::string>& out) {
  const sched::RunMetrics& m = run.metrics;
  const char* oracle = "conservation";
  expect_eq(out, oracle, run.name,
            "hits + exec_misses + culled + rejected + admission_rejected",
            m.deadline_hits + m.exec_misses + m.culled + m.rejected +
                m.admission_rejected,
            m.total_tasks);
  expect_eq(out, oracle, run.name, "deadline_hits + exec_misses",
            m.deadline_hits + m.exec_misses, m.scheduled);
  if (!run.has_ledger) return;
  const sched::LedgerCounts& l = run.ledger;
  if (!l.conserved()) {
    std::ostringstream os;
    os << "ledger not conserved: total " << l.total << " hits "
       << l.deadline_hits << " exec_misses " << l.exec_misses << " culled "
       << l.culled << " rejected " << l.rejected << " admission_rejected "
       << l.admission_rejected << " in_flight " << l.in_flight;
    violation(out, oracle, run.name, os.str());
  }
  expect_eq(out, oracle, run.name, "ledger total", l.total, m.total_tasks);
  expect_eq(out, oracle, run.name, "ledger hits", l.deadline_hits,
            m.deadline_hits);
  expect_eq(out, oracle, run.name, "ledger exec_misses", l.exec_misses,
            m.exec_misses);
  expect_eq(out, oracle, run.name, "ledger culled", l.culled, m.culled);
  expect_eq(out, oracle, run.name, "ledger rejected", l.rejected, m.rejected);
  expect_eq(out, oracle, run.name, "ledger admission_rejected",
            l.admission_rejected, m.admission_rejected);
  // Transition-event cross-checks: every schedule() either delivered,
  // dropped (readmission) or rejected — and the pipeline's aggregate
  // counters must agree with the per-task lifecycle event counts.
  expect_eq(out, oracle, run.name, "ledger delivery_events",
            l.delivery_events, m.scheduled);
  expect_eq(out, oracle, run.name, "ledger drop_events", l.drop_events,
            m.readmissions);
  expect_eq(out, oracle, run.name,
            "delivery_events + drop_events + rejected",
            l.delivery_events + l.drop_events + l.rejected,
            l.schedule_events);
  // Terminal tasks leave the ledger: what it holds is what is in flight.
  expect_eq(out, oracle, run.name, "ledger entries after drain",
            run.ledger_size, std::size_t{0});
  if (run.max_pending == 0 || !run.has_phases) return;
  std::uint64_t largest_delivery = 0;
  for (const sched::PhaseRecord& r : run.phases) {
    largest_delivery = std::max(largest_delivery, r.delivered);
  }
  if (run.ledger_high_water > run.max_pending + largest_delivery) {
    std::ostringstream os;
    os << "ledger held " << run.ledger_high_water << " tasks at a phase end, "
       << "above max_pending " << run.max_pending
       << " + largest phase delivery " << largest_delivery;
    violation(out, oracle, run.name, os.str());
  }
}

void oracle_schedule_validity(const std::string& name,
                              const machine::Cluster& cluster,
                              const std::vector<tasks::Task>& workload,
                              std::vector<std::string>& out) {
  const machine::ValidationReport report =
      machine::validate_execution(cluster, workload);
  for (const std::string& v : report.violations) {
    violation(out, "schedule-validity", name, v);
  }
}

void oracle_quantum_bound(const Scenario& scenario, const BackendRun& run,
                          std::vector<std::string>& out) {
  if (!run.has_phases) return;
  const char* oracle = "quantum-bound";
  const SimDuration floor =
      SimDuration{scenario.phase_overhead_us + scenario.vertex_cost_us};
  std::uint64_t overrides_seen = 0;
  for (const sched::PhaseRecord& r : run.phases) {
    if (r.quantum_floor_override) {
      ++overrides_seen;
      // The floor is applied verbatim, never padded.
      if (r.quantum != floor) {
        std::ostringstream os;
        os << "phase " << r.index << ": override quantum "
           << to_string(r.quantum) << " != progress floor "
           << to_string(floor);
        violation(out, oracle, run.name, os.str());
      }
      continue;
    }
    const SimDuration expected =
        scenario.quantum_kind == 1
            ? SimDuration{scenario.fixed_quantum_us}
            : clamp_duration(max_duration(r.min_slack, r.min_load),
                             SimDuration{scenario.min_quantum_us},
                             SimDuration{scenario.max_quantum_us});
    if (r.quantum != expected) {
      std::ostringstream os;
      os << "phase " << r.index << ": Q_s " << to_string(r.quantum)
         << " != policy allocation " << to_string(expected) << " (Min_Slack "
         << to_string(r.min_slack) << ", Min_Load " << to_string(r.min_load)
         << ")";
      violation(out, oracle, run.name, os.str());
    }
    // The paper's bound (Fig. 3): Q_s(j) <= max(Min_Slack, Min_Load),
    // binding whenever the bound itself is above the minimum-progress
    // clamp.
    const SimDuration bound = max_duration(r.min_slack, r.min_load);
    if (scenario.quantum_kind == 0 &&
        bound >= SimDuration{scenario.min_quantum_us} && r.quantum > bound) {
      std::ostringstream os;
      os << "phase " << r.index << ": Q_s " << to_string(r.quantum)
         << " exceeds max(Min_Slack, Min_Load) = " << to_string(bound);
      violation(out, oracle, run.name, os.str());
    }
  }
  expect_eq(out, oracle, run.name, "quantum_floor_overrides",
            run.metrics.quantum_floor_overrides, overrides_seen);
  expect_eq(out, oracle, run.name, "phases", run.metrics.phases,
            std::uint64_t(run.phases.size()));
}

namespace {

/// Every RunMetrics field and the latency histograms of two runs, reported
/// under `oracle`.
void expect_same_metrics(const BackendRun& a, const BackendRun& b,
                         const char* oracle, std::vector<std::string>& out) {
  const std::string pair = a.name + " vs " + b.name;
  const sched::RunMetrics& x = a.metrics;
  const sched::RunMetrics& y = b.metrics;
  expect_eq(out, oracle, pair, "algorithm", x.algorithm, y.algorithm);
  expect_eq(out, oracle, pair, "total_tasks", x.total_tasks, y.total_tasks);
  expect_eq(out, oracle, pair, "scheduled", x.scheduled, y.scheduled);
  expect_eq(out, oracle, pair, "deadline_hits", x.deadline_hits,
            y.deadline_hits);
  expect_eq(out, oracle, pair, "exec_misses", x.exec_misses, y.exec_misses);
  expect_eq(out, oracle, pair, "culled", x.culled, y.culled);
  expect_eq(out, oracle, pair, "rejected", x.rejected, y.rejected);
  expect_eq(out, oracle, pair, "admission_rejected", x.admission_rejected,
            y.admission_rejected);
  expect_eq(out, oracle, pair, "overflow_drops", x.overflow_drops,
            y.overflow_drops);
  expect_eq(out, oracle, pair, "readmissions", x.readmissions,
            y.readmissions);
  expect_eq(out, oracle, pair, "backpressure_waits", x.backpressure_waits,
            y.backpressure_waits);
  expect_eq(out, oracle, pair, "quantum_floor_overrides",
            x.quantum_floor_overrides, y.quantum_floor_overrides);
  expect_eq(out, oracle, pair, "phases", x.phases, y.phases);
  expect_eq(out, oracle, pair, "vertices_generated", x.vertices_generated,
            y.vertices_generated);
  expect_eq(out, oracle, pair, "expansions", x.expansions, y.expansions);
  expect_eq(out, oracle, pair, "backtracks", x.backtracks, y.backtracks);
  expect_eq(out, oracle, pair, "dead_ends", x.dead_ends, y.dead_ends);
  expect_eq(out, oracle, pair, "leaves", x.leaves, y.leaves);
  expect_eq(out, oracle, pair, "budget_exhaustions", x.budget_exhaustions,
            y.budget_exhaustions);
  expect_eq(out, oracle, pair, "finish_time.us", x.finish_time.us,
            y.finish_time.us);
  expect_eq(out, oracle, pair, "scheduling_time.us", x.scheduling_time.us,
            y.scheduling_time.us);
  expect_eq(out, oracle, pair, "allocated_quantum.us", x.allocated_quantum.us,
            y.allocated_quantum.us);
  expect_eq(out, oracle, pair, "min_quantum_seen.us", x.min_quantum_seen.us,
            y.min_quantum_seen.us);
  expect_eq(out, oracle, pair, "max_quantum_seen.us", x.max_quantum_seen.us,
            y.max_quantum_seen.us);
  // Streaming runs also record a latency histogram; two runs of the same
  // scenario must agree on it slot for slot.
  if (a.latency != b.latency) {
    violation(out, oracle, pair, "latency histograms differ");
  }
}

/// The first field in which two phase records differ, search_wall_ns (host
/// time) aside; empty when none does.
std::string first_difference(const sched::PhaseRecord& x,
                             const sched::PhaseRecord& y) {
#define RTDS_SAME(field) \
  if (!(x.field == y.field)) return #field
  RTDS_SAME(algorithm);
  RTDS_SAME(index);
  RTDS_SAME(start);
  RTDS_SAME(end);
  RTDS_SAME(batch_size);
  RTDS_SAME(arrivals);
  RTDS_SAME(culled);
  RTDS_SAME(admission_rejected);
  RTDS_SAME(min_slack);
  RTDS_SAME(min_load);
  RTDS_SAME(quantum);
  RTDS_SAME(vertex_budget);
  RTDS_SAME(quantum_floor_override);
  RTDS_SAME(search);
  RTDS_SAME(scheduled);
  RTDS_SAME(delivered);
  RTDS_SAME(overflow_drops);
  RTDS_SAME(readmitted);
  RTDS_SAME(rejected);
#undef RTDS_SAME
  return {};
}

}  // namespace

void oracle_metric_parity(const BackendRun& a, const BackendRun& b,
                          std::vector<std::string>& out) {
  expect_same_metrics(a, b, "metric-parity", out);
}

void oracle_fast_forward_parity(const BackendRun& run,
                                const BackendRun& reference,
                                std::vector<std::string>& out) {
  const char* oracle = "fast-forward-parity";
  const std::string pair = run.name + " vs " + reference.name;
  expect_same_metrics(run, reference, oracle, out);
  const sched::LedgerCounts& x = run.ledger;
  const sched::LedgerCounts& y = reference.ledger;
  expect_eq(out, oracle, pair, "ledger.total", x.total, y.total);
  expect_eq(out, oracle, pair, "ledger.deadline_hits", x.deadline_hits,
            y.deadline_hits);
  expect_eq(out, oracle, pair, "ledger.exec_misses", x.exec_misses,
            y.exec_misses);
  expect_eq(out, oracle, pair, "ledger.culled", x.culled, y.culled);
  expect_eq(out, oracle, pair, "ledger.rejected", x.rejected, y.rejected);
  expect_eq(out, oracle, pair, "ledger.admission_rejected",
            x.admission_rejected, y.admission_rejected);
  expect_eq(out, oracle, pair, "ledger.in_flight", x.in_flight, y.in_flight);
  expect_eq(out, oracle, pair, "ledger.schedule_events", x.schedule_events,
            y.schedule_events);
  expect_eq(out, oracle, pair, "ledger.delivery_events", x.delivery_events,
            y.delivery_events);
  expect_eq(out, oracle, pair, "ledger.drop_events", x.drop_events,
            y.drop_events);
  expect_eq(out, oracle, pair, "ledger high-water", run.ledger_high_water,
            reference.ledger_high_water);
  expect_eq(out, oracle, pair, "phase records", run.phases.size(),
            reference.phases.size());
  const std::size_t n = std::min(run.phases.size(), reference.phases.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string field = first_difference(run.phases[i],
                                               reference.phases[i]);
    if (field.empty()) continue;
    violation(out, oracle, pair,
              "phase " + std::to_string(i) + ": " + field + " differs");
    return;  // one phase names the divergence; the rest follow from it
  }
}

void oracle_stream_accounting(const BackendRun& run,
                              std::vector<std::string>& out) {
  if (!run.latency.has_value()) return;
  expect_eq(out, "stream-accounting", run.name,
            "latency samples (one per accepted delivery)",
            run.latency->count(), run.metrics.scheduled);
}

void oracle_gang_occupancy(const std::string& name,
                           const machine::Cluster& cluster,
                           const std::vector<tasks::Task>& workload,
                           std::vector<std::string>& out) {
  const char* oracle = "gang-occupancy";
  const std::uint32_t m = cluster.num_workers();

  std::unordered_map<tasks::TaskId, std::uint32_t> declared_width;
  declared_width.reserve(workload.size());
  for (const tasks::Task& t : workload) {
    declared_width.emplace(t.id, t.workers_required);
  }

  // Expanded per-worker-slot intervals: one (start, end, task) triple per
  // occupied worker, derived only from the record's lead + width.
  struct Slot {
    std::int64_t start_us;
    std::int64_t end_us;
    tasks::TaskId task;
  };
  std::vector<std::vector<Slot>> per_worker(m);

  for (const machine::CompletionRecord& rec : cluster.log()) {
    if (rec.width < 1 || rec.worker >= m || rec.width > m - rec.worker) {
      std::ostringstream os;
      os << "task " << rec.task << ": block [" << rec.worker << ", "
         << rec.worker + rec.width << ") exceeds the " << m
         << "-worker machine — a gang must never be split or truncated";
      violation(out, oracle, name, os.str());
      continue;
    }
    if (const auto it = declared_width.find(rec.task);
        it != declared_width.end() && rec.width != it->second) {
      std::ostringstream os;
      os << "task " << rec.task << ": executed with width " << rec.width
         << " but the workload declares workers_required = " << it->second;
      violation(out, oracle, name, os.str());
    }
    for (std::uint32_t j = 0; j < rec.width; ++j) {
      per_worker[rec.worker + j].push_back(
          Slot{rec.start.us, rec.end.us, rec.task});
    }
  }

  // Per-worker-slot serialization: with blocks expanded, no worker may run
  // two tasks at once ([start, end) intervals must not overlap).
  for (std::uint32_t w = 0; w < m; ++w) {
    auto& slots = per_worker[w];
    std::sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
      return a.start_us != b.start_us ? a.start_us < b.start_us
                                      : a.end_us < b.end_us;
    });
    for (std::size_t i = 1; i < slots.size(); ++i) {
      if (slots[i].start_us < slots[i - 1].end_us) {
        std::ostringstream os;
        os << "worker " << w << ": task " << slots[i].task << " starts at "
           << slots[i].start_us << "us before task " << slots[i - 1].task
           << " ends at " << slots[i - 1].end_us << "us";
        violation(out, oracle, name, os.str());
      }
    }
  }

  // Machine-wide sweep: at no instant may more than m worker-slots be
  // occupied. Ends sort before starts at the same instant because the
  // intervals are half-open.
  struct Event {
    std::int64_t t_us;
    std::int32_t delta;  // +width at start, -width at end
  };
  std::vector<Event> events;
  events.reserve(2 * cluster.log().size());
  for (const machine::CompletionRecord& rec : cluster.log()) {
    if (rec.worker >= m || rec.width > m - rec.worker) continue;  // reported
    events.push_back(Event{rec.start.us, static_cast<std::int32_t>(rec.width)});
    events.push_back(Event{rec.end.us, -static_cast<std::int32_t>(rec.width)});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.t_us != b.t_us ? a.t_us < b.t_us : a.delta < b.delta;
  });
  std::int64_t occupied = 0;
  for (const Event& e : events) {
    occupied += e.delta;
    if (occupied > static_cast<std::int64_t>(m)) {
      std::ostringstream os;
      os << occupied << " worker-slots occupied at " << e.t_us
         << "us on a " << m << "-worker machine";
      violation(out, oracle, name, os.str());
      break;  // one breach is enough; later counts are all derived from it
    }
  }
}

void oracle_threaded_parity(const BackendRun& sim, const BackendRun& threaded,
                            std::vector<std::string>& out) {
  const char* oracle = "threaded-parity";
  expect_eq(out, oracle, threaded.name, "scheduled",
            threaded.metrics.scheduled, sim.metrics.scheduled);
  expect_eq(out, oracle, threaded.name, "culled", threaded.metrics.culled,
            sim.metrics.culled);
  expect_eq(out, oracle, threaded.name, "deadline_hits",
            threaded.metrics.deadline_hits, sim.metrics.deadline_hits);
  expect_eq(out, oracle, threaded.name, "overflow_drops",
            threaded.metrics.overflow_drops, std::uint64_t{0});
  expect_eq(out, oracle, threaded.name, "rejected", threaded.metrics.rejected,
            std::uint64_t{0});
}

}  // namespace rtds::testing
