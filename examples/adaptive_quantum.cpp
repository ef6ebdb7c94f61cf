// Walkthrough of the self-adjusting scheduling-time criterion (Sec. 4.2).
//
// Runs RT-SADS through PhasePipeline on a simulated 4-worker machine and
// prints, from the PhaseRecord each phase hands a PhaseObserver, a
// per-phase trace: Min_Slack, Min_Load, the allocated Q_s(j), the vertex
// budget it buys, and what each phase achieved. Watch the quantum shrink
// when slack gets tight or workers go idle, and stretch when the workers
// are loaded anyway (Fig. 3's motivation).
#include <iomanip>
#include <iostream>

#include "common/rng.h"
#include "machine/cluster.h"
#include "sched/backend.h"
#include "sched/pipeline.h"
#include "sched/quantum.h"
#include "sched/registry.h"
#include "sched/trace.h"
#include "sim/simulator.h"
#include "tasks/workload.h"

namespace {

/// Prints one row per scheduling phase.
class PhasePrinter final : public rtds::sched::PhaseObserver {
 public:
  void on_phase(const rtds::sched::PhaseRecord& r) override {
    std::cout << std::setw(5) << r.index << std::setw(10) << std::fixed
              << std::setprecision(2) << double(r.start.us) / 1000.0
              << std::setw(7) << r.batch_size << std::setw(13)
              << r.min_slack.millis() << std::setw(13) << r.min_load.millis()
              << std::setw(9) << r.quantum.millis() << std::setw(8)
              << r.vertex_budget << std::setw(8) << r.delivered << "  "
              << (r.search.dead_end           ? "dead-end"
                  : r.search.reached_leaf     ? "complete"
                  : r.search.budget_exhausted ? "budget out"
                                              : "")
              << "\n";
  }
};

}  // namespace

int main() {
  using namespace rtds;

  constexpr std::uint32_t kWorkers = 4;

  machine::Cluster cluster(
      kWorkers, machine::Interconnect::cut_through(kWorkers, msec(2)));

  // Two waves of tasks: a tight burst at t=0 and a loose burst at t=40ms.
  Xoshiro256ss rng(7);
  tasks::WorkloadConfig tight;
  tight.num_tasks = 40;
  tight.num_processors = kWorkers;
  tight.processing_min = msec(1);
  tight.processing_max = msec(4);
  tight.laxity_min = tight.laxity_max = 4.0;
  tight.affinity_degree = 0.5;
  auto wave1 = tasks::generate_workload(tight, rng);

  tasks::WorkloadConfig loose = tight;
  loose.num_tasks = 40;
  loose.start = SimTime::zero() + msec(40);
  loose.laxity_min = loose.laxity_max = 30.0;
  loose.first_id = 1000;
  auto wave2 = tasks::generate_workload(loose, rng);

  std::vector<tasks::Task> all = wave1;
  all.insert(all.end(), wave2.begin(), wave2.end());

  const auto algorithm = sched::AlgorithmRegistry::builtin().make("rt_sads");
  const auto quantum = sched::make_self_adjusting_quantum(usec(200), msec(15));
  sched::PipelineConfig config;
  config.vertex_generation_cost = usec(5);
  config.phase_overhead = usec(50);
  const sched::PhasePipeline pipeline(*algorithm, *quantum, config);

  sim::Simulator simulator;
  sched::SimBackend backend(cluster, simulator);
  PhasePrinter printer;
  std::cout << "phase     t(ms)  batch  MinSlack(ms)  MinLoad(ms)  Q_s(ms)  "
               "budget  placed  note\n";
  pipeline.run(all, backend, &printer);

  const auto& stats = cluster.stats();
  std::cout << "\nexecuted " << stats.executed << " tasks, "
            << stats.deadline_hits << " met their deadline, "
            << stats.deadline_misses
            << " missed during execution (theorem: must be 0)\n";
  return 0;
}
