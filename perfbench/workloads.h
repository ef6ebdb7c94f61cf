// The benchmark's workloads and the one way each pipeline run is made.
//
// A workload builds the inputs of one *pass* from the seed: a list of
// cells, each one PhasePipeline::run_stream call on a fresh SimBackend.
// A pass is deterministic in the seed, so every repetition of it must
// produce the same RunMetrics; only the host time differs.
//
//   poisson_steady  rt_sads, m=4, Poisson arrivals at 500/s, max_pending
//                   128. The service regime: batches of about one task,
//                   most phases schedule nothing, so the phase loop, the
//                   backend calls and per-call search setup dominate.
//   onoff_burst     rt_sads, m=4, bursts of 200 tasks 20 us apart every
//                   400 ms (the same mean rate), max_pending 128. Drives
//                   admission control, culling and searches of ~16 tasks.
//   fig5_burst      the paper's Fig. 5 protocol: 1000-transaction bursts
//                   through db, R=30%, SF=1, m in {2,4,6,8,10}, rt_sads and
//                   d_cols. Few phases, batches of 500-1000 tasks: the tree
//                   walk dominates, and d_cols is the only user of the
//                   sequence-oriented search.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/time.h"
#include "histogram.h"
#include "sched/algorithm.h"
#include "sched/pipeline.h"
#include "sched/quantum.h"
#include "tasks/arrival_source.h"
#include "trace.h"

namespace perfbench {

/// Host time spent building one pass's inputs.
struct SetupTimes {
  std::uint64_t total_ns{0};
  std::uint64_t database_ns{0};      ///< db::GlobalDatabase construction
  std::uint64_t transactions_ns{0};  ///< db::generate_transactions
  std::uint64_t to_tasks_ns{0};      ///< placement + db::to_tasks
};

/// The inputs of one run_stream call.
struct Cell {
  std::unique_ptr<rtds::sched::PhaseAlgorithm> algorithm;
  std::unique_ptr<rtds::sched::QuantumPolicy> quantum;
  std::unique_ptr<rtds::tasks::ArrivalSource> source;
  std::uint64_t offered{0};  ///< tasks the source emits
  std::uint32_t workers{0};
  rtds::SimDuration comm_cost{rtds::SimDuration::zero()};
  rtds::sched::PipelineConfig pipeline;
  rtds::sched::StreamOptions stream;
};

/// Optional instruments for one run; all null runs the bare program.
struct Instruments {
  Tracer* tracer{nullptr};
  LogLinearHistogram* latency_us{nullptr};
  SearchCounters* search{nullptr};
  PhaseCounts* phases{nullptr};
};

struct CellRun {
  rtds::sched::RunMetrics metrics;
  std::uint64_t wall_ns{0};  ///< host time inside run_stream
};

/// Runs one cell (consuming its source) on a fresh cluster and simulator.
CellRun run_cell(Cell& cell, const Instruments& instruments);

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs of one pass and times the building.
  [[nodiscard]] virtual std::vector<Cell> setup(SetupTimes& times) const = 0;

  /// The parameters that take effect, as a JSON object.
  [[nodiscard]] virtual std::string params_json() const = 0;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Throws InvalidArgument for an unknown name. `scale` shrinks the pass
/// (task count, or seeds on fig5_burst) for the self-test.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      std::uint64_t seed,
                                                      double scale = 1.0);

/// The Fig. 5 headline cell on the paper protocol's first 10 seeds: m=10,
/// rt_sads then d_cols, ten cells each.
[[nodiscard]] std::unique_ptr<Workload> make_fig5_golden();

/// Field-by-field equality of two runs' simulated outputs; names the first
/// differing field, or returns "" when equal. search_wall_ns (host time)
/// and threads (every workload is single threaded, and the decorated
/// algorithm reports the base-class default) are not compared.
[[nodiscard]] std::string first_difference(const rtds::sched::RunMetrics& a,
                                           const rtds::sched::RunMetrics& b);

/// Empty when the run satisfies the correction theorem (exec_misses == 0)
/// and five-term conservation over `offered` tasks; else what failed.
[[nodiscard]] std::string check_run(const rtds::sched::RunMetrics& m,
                                    std::uint64_t offered);

}  // namespace perfbench
