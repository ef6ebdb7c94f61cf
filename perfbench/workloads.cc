#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "db/database.h"
#include "db/placement.h"
#include "db/transaction.h"
#include "exp/experiment.h"
#include "machine/cluster.h"
#include "machine/interconnect.h"
#include "sched/backend.h"
#include "sched/registry.h"
#include "sim/simulator.h"

namespace perfbench {
namespace {

using rtds::SimDuration;
using rtds::usec;

// Pass sizes: large enough that every latency quantile reported has at
// least ten samples beyond it (p999 of the streams has ~60-200, of the
// fig5 pass ~20), and small enough that one pass takes well under a second
// of host time, so a 10 s run repeats it dozens of times.
constexpr std::uint32_t kStreamTasks = 200000;
constexpr std::uint32_t kFig5Seeds = 24;

std::string canonical(const std::string& spec) {
  return rtds::sched::AlgorithmRegistry::builtin().canonicalize(spec).value_or(
      spec);
}

std::uint32_t scaled(std::uint32_t n, double scale) {
  return std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::lround(double(n) * scale)));
}

enum class Arrivals { kPoisson, kOnOff };

/// rt_sads on four workers behind admission control, fed by a generated
/// open stream with a mean rate of 500 tasks/s.
class StreamWorkload final : public Workload {
 public:
  StreamWorkload(std::string name, Arrivals arrivals, std::uint64_t seed,
                 std::uint32_t tasks)
      : name_(std::move(name)),
        arrivals_(arrivals),
        seed_(seed),
        tasks_(tasks) {}

  std::vector<Cell> setup(SetupTimes& times) const override {
    const std::uint64_t start = Tracer::now_ns();
    Cell cell;
    cell.algorithm = rtds::sched::AlgorithmRegistry::builtin().make(kAlgo);
    cell.quantum = rtds::sched::make_self_adjusting_quantum();
    rtds::tasks::StreamConfig cfg;
    cfg.seed = rtds::derive_seed(seed_, rtds::stream_id(name_.c_str()), 0);
    cfg.max_tasks = tasks_;
    cfg.body.num_processors = kWorkers;
    if (arrivals_ == Arrivals::kPoisson) {
      cell.source = std::make_unique<rtds::tasks::PoissonArrivalSource>(
          cfg, kPoissonGap);
    } else {
      cell.source = std::make_unique<rtds::tasks::OnOffArrivalSource>(
          cfg, kOnGap, kBurstLen, kOffGap);
    }
    cell.offered = tasks_;
    cell.workers = kWorkers;
    cell.comm_cost = kCommCost;
    cell.stream.max_pending = kMaxPending;
    std::vector<Cell> cells;
    cells.push_back(std::move(cell));
    times.total_ns = Tracer::now_ns() - start;
    return cells;
  }

  std::string params_json() const override {
    std::ostringstream os;
    os << "{\"algorithms\": [\"" << canonical(kAlgo) << "\"], \"seed\": "
       << seed_ << ", \"tasks\": " << tasks_
       << ", \"max_pending\": " << kMaxPending << ", \"workers\": " << kWorkers
       << ", \"comm_cost_us\": " << kCommCost.us << ", \"arrivals\": ";
    if (arrivals_ == Arrivals::kPoisson) {
      os << "{\"process\": \"poisson\", \"mean_gap_us\": " << kPoissonGap.us
         << "}";
    } else {
      os << "{\"process\": \"on_off\", \"burst_len\": " << kBurstLen
         << ", \"on_gap_us\": " << kOnGap.us << ", \"off_gap_us\": "
         << kOffGap.us << "}";
    }
    const rtds::sched::PipelineConfig pipeline;
    os << ", \"quantum\": \"" << rtds::sched::make_self_adjusting_quantum()->name()
       << "\", \"vertex_cost_us\": " << pipeline.vertex_generation_cost.us
       << ", \"phase_overhead_us\": " << pipeline.phase_overhead.us << "}";
    return os.str();
  }

 private:
  static constexpr const char* kAlgo = "rt_sads";
  static constexpr std::uint32_t kWorkers = 4;
  static constexpr std::size_t kMaxPending = 128;
  static constexpr SimDuration kCommCost = usec(50);
  static constexpr SimDuration kPoissonGap = usec(2000);
  // 200 tasks 20 us apart, one burst every 400 ms: 500 tasks/s on average.
  static constexpr std::uint32_t kBurstLen = 200;
  static constexpr SimDuration kOnGap = usec(20);
  static constexpr SimDuration kOffGap = usec(400000 - (kBurstLen - 1) * 20);

  std::string name_;
  Arrivals arrivals_;
  std::uint64_t seed_;
  std::uint32_t tasks_;
};

/// The Fig. 5 protocol of exp::run_once, with input building split from
/// the pipeline call: per seed one database and one transaction burst,
/// per worker count one placement, per algorithm one run.
class Fig5Workload final : public Workload {
 public:
  Fig5Workload(std::vector<std::uint64_t> seeds,
               std::vector<std::uint32_t> workers,
               std::vector<std::string> algos)
      : seeds_(std::move(seeds)),
        workers_(std::move(workers)),
        algos_(std::move(algos)) {}

  std::vector<Cell> setup(SetupTimes& times) const override {
    const std::uint64_t start = Tracer::now_ns();
    const rtds::exp::ExperimentConfig cfg;
    rtds::db::TransactionWorkloadConfig txn_cfg;
    txn_cfg.num_transactions = cfg.num_transactions;
    txn_cfg.max_predicates = cfg.max_predicates;
    txn_cfg.scaling_factor = cfg.scaling_factor;
    txn_cfg.fill_actual_costs = cfg.reclaim_actual_costs;

    std::vector<Cell> cells;
    for (const std::uint64_t seed : seeds_) {
      rtds::Xoshiro256ss rng(seed);
      std::uint64_t t = Tracer::now_ns();
      const rtds::db::GlobalDatabase database(cfg.database, rng);
      times.database_ns += Tracer::now_ns() - t;
      t = Tracer::now_ns();
      const std::vector<rtds::db::Transaction> txns =
          rtds::db::generate_transactions(database, txn_cfg, rng);
      times.transactions_ns += Tracer::now_ns() - t;
      for (const std::uint32_t m : workers_) {
        t = Tracer::now_ns();
        const rtds::db::Placement placement = rtds::db::Placement::rotation(
            cfg.database.num_subdbs, m, cfg.replication_rate);
        const std::vector<rtds::tasks::Task> workload =
            rtds::db::to_tasks(txns, database, placement, txn_cfg);
        times.to_tasks_ns += Tracer::now_ns() - t;
        for (const std::string& spec : algos_) {
          Cell cell;
          cell.algorithm = rtds::sched::AlgorithmRegistry::builtin().make(spec);
          cell.quantum = cfg.make_quantum();
          cell.source =
              std::make_unique<rtds::tasks::VectorArrivalSource>(workload);
          cell.offered = workload.size();
          cell.workers = m;
          cell.comm_cost = cfg.comm_cost;
          cell.pipeline.vertex_generation_cost = cfg.vertex_cost;
          cell.pipeline.phase_overhead = cfg.phase_overhead;
          cells.push_back(std::move(cell));
        }
      }
    }
    times.total_ns = Tracer::now_ns() - start;
    return cells;
  }

  std::string params_json() const override {
    const rtds::exp::ExperimentConfig cfg;
    std::ostringstream os;
    os << "{\"algorithms\": [";
    for (std::size_t i = 0; i < algos_.size(); ++i) {
      os << (i ? ", " : "") << "\"" << canonical(algos_[i]) << "\"";
    }
    os << "], \"seeds\": [";
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      os << (i ? ", " : "") << seeds_[i];
    }
    os << "], \"workers\": [";
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      os << (i ? ", " : "") << workers_[i];
    }
    os << "], \"transactions\": " << cfg.num_transactions
       << ", \"replication_rate\": " << cfg.replication_rate
       << ", \"scaling_factor\": " << cfg.scaling_factor
       << ", \"max_pending\": 0, \"comm_cost_us\": " << cfg.comm_cost.us
       << ", \"quantum\": \"" << cfg.make_quantum()->name()
       << "\", \"vertex_cost_us\": " << cfg.vertex_cost.us
       << ", \"phase_overhead_us\": " << cfg.phase_overhead.us << "}";
    return os.str();
  }

 private:
  std::vector<std::uint64_t> seeds_;
  std::vector<std::uint32_t> workers_;
  std::vector<std::string> algos_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"poisson_steady", "onoff_burst",
                                              "fig5_burst"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, double scale) {
  if (name == "poisson_steady" || name == "onoff_burst") {
    return std::make_unique<StreamWorkload>(
        name, name == "poisson_steady" ? Arrivals::kPoisson : Arrivals::kOnOff,
        seed, scaled(kStreamTasks, scale));
  }
  if (name == "fig5_burst") {
    std::vector<std::uint64_t> seeds;
    for (std::uint32_t i = 0; i < scaled(kFig5Seeds, scale); ++i) {
      seeds.push_back(rtds::derive_seed(seed, rtds::stream_id("fig5_burst"), i));
    }
    return std::make_unique<Fig5Workload>(
        std::move(seeds), std::vector<std::uint32_t>{2, 4, 6, 8, 10},
        std::vector<std::string>{"rt_sads", "d_cols"});
  }
  throw rtds::InvalidArgument("unknown workload '" + name + "'");
}

std::unique_ptr<Workload> make_fig5_golden() {
  const rtds::exp::ExperimentConfig cfg;
  std::vector<std::uint64_t> seeds;
  for (std::uint32_t i = 0; i < 10; ++i) {
    seeds.push_back(rtds::derive_seed(cfg.base_seed, i));
  }
  return std::make_unique<Fig5Workload>(
      std::move(seeds), std::vector<std::uint32_t>{10},
      std::vector<std::string>{"rt_sads", "d_cols"});
}

CellRun run_cell(Cell& cell, const Instruments& in) {
  rtds::machine::Cluster cluster(
      cell.workers,
      rtds::machine::Interconnect::cut_through(cell.workers, cell.comm_cost));
  rtds::sim::Simulator simulator;
  rtds::sched::SimBackend sim_backend(cluster, simulator);
  CellRun out;

  if (in.tracer == nullptr && in.latency_us == nullptr &&
      in.search == nullptr && in.phases == nullptr) {
    const rtds::sched::PhasePipeline pipeline(*cell.algorithm, *cell.quantum,
                                              cell.pipeline);
    const std::uint64_t start = Tracer::now_ns();
    out.metrics = pipeline.run_stream(*cell.source, sim_backend, cell.stream);
    out.wall_ns = Tracer::now_ns() - start;
    return out;
  }

  TracedSource source(*cell.source, in.tracer);
  const TracedQuantum quantum(*cell.quantum, in.tracer);
  const TracedAlgorithm algorithm(*cell.algorithm, in.tracer, in.search);
  RecordingBackend backend(sim_backend, in.tracer, in.latency_us);
  std::optional<CountingObserver> observer;
  if (in.phases != nullptr) observer.emplace(*in.phases);
  const rtds::sched::PhasePipeline pipeline(algorithm, quantum, cell.pipeline);
  const std::uint64_t start = Tracer::now_ns();
  out.metrics = pipeline.run_stream(source, backend, cell.stream, nullptr,
                                    observer ? &*observer : nullptr);
  const std::uint64_t end = Tracer::now_ns();
  out.wall_ns = end - start;
  if (in.tracer != nullptr) in.tracer->record(Layer::kRun, start, end, 0);
  return out;
}

std::string first_difference(const rtds::sched::RunMetrics& a,
                             const rtds::sched::RunMetrics& b) {
#define PERFBENCH_SAME(field) \
  if (!(a.field == b.field)) return #field
  PERFBENCH_SAME(algorithm);
  PERFBENCH_SAME(total_tasks);
  PERFBENCH_SAME(scheduled);
  PERFBENCH_SAME(deadline_hits);
  PERFBENCH_SAME(exec_misses);
  PERFBENCH_SAME(culled);
  PERFBENCH_SAME(rejected);
  PERFBENCH_SAME(admission_rejected);
  PERFBENCH_SAME(overflow_drops);
  PERFBENCH_SAME(readmissions);
  PERFBENCH_SAME(backpressure_waits);
  PERFBENCH_SAME(quantum_floor_overrides);
  PERFBENCH_SAME(phases);
  PERFBENCH_SAME(vertices_generated);
  PERFBENCH_SAME(expansions);
  PERFBENCH_SAME(backtracks);
  PERFBENCH_SAME(dead_ends);
  PERFBENCH_SAME(leaves);
  PERFBENCH_SAME(budget_exhaustions);
  PERFBENCH_SAME(finish_time);
  PERFBENCH_SAME(scheduling_time);
  PERFBENCH_SAME(allocated_quantum);
  PERFBENCH_SAME(min_quantum_seen);
  PERFBENCH_SAME(max_quantum_seen);
#undef PERFBENCH_SAME
  return "";
}

std::string check_run(const rtds::sched::RunMetrics& m, std::uint64_t offered) {
  if (m.exec_misses != 0) return "exec_misses != 0 (correction theorem)";
  if (m.total_tasks != offered) return "total_tasks != offered tasks";
  if (m.total_tasks != m.deadline_hits + m.exec_misses + m.culled +
                           m.rejected + m.admission_rejected) {
    return "five-term conservation violated";
  }
  return "";
}

}  // namespace perfbench
