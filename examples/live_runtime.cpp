// Live deployment demo: the same RT-SADS scheduler driving real worker
// threads through mailboxes, with deadlines checked against the wall clock
// (src/runtime). Execution is scaled down 4x so the demo finishes quickly.
//
//   ./build/examples/live_runtime [num_tasks] [workers]
#include <cstdlib>
#include <iostream>

#include "common/rng.h"
#include "runtime/threaded_backend.h"
#include "sched/pipeline.h"
#include "sched/presets.h"
#include "sched/quantum.h"
#include "tasks/workload.h"

int main(int argc, char** argv) {
  using namespace rtds;

  const std::uint32_t num_tasks =
      argc > 1 ? std::uint32_t(std::atoi(argv[1])) : 200;
  const std::uint32_t workers =
      argc > 2 ? std::uint32_t(std::atoi(argv[2])) : 4;

  tasks::WorkloadConfig wc;
  wc.num_tasks = num_tasks;
  wc.num_processors = workers;
  wc.arrival = tasks::ArrivalPattern::kPoisson;
  wc.mean_interarrival = usec(800);
  wc.processing_min = usec(500);
  wc.processing_max = msec(3);
  wc.affinity_degree = 0.4;
  wc.laxity_min = 15.0;
  wc.laxity_max = 40.0;
  Xoshiro256ss rng(11);
  const auto workload = tasks::generate_workload(wc, rng);

  const auto algorithm = sched::make_rt_sads();
  const auto quantum = sched::make_self_adjusting_quantum(usec(200), msec(10));

  runtime::RuntimeConfig cfg;
  cfg.num_workers = workers;
  cfg.comm_cost = msec(1);
  cfg.time_scale = 0.25;  // execute 4x faster than nominal

  // The wall clock pays for every phase as it runs, so the pipeline charges
  // no synthetic per-phase overhead on top.
  sched::PipelineConfig pipeline_cfg;
  pipeline_cfg.vertex_generation_cost = usec(10);
  pipeline_cfg.phase_overhead = SimDuration::zero();
  const sched::PhasePipeline pipeline(*algorithm, *quantum, pipeline_cfg);

  std::cout << "running " << num_tasks << " tasks on " << workers
            << " worker threads (live wall-clock deadlines)...\n";
  runtime::ThreadedBackend backend(cfg);
  const sched::RunMetrics r = pipeline.run(workload, backend);

  std::cout << "tasks offered       : " << r.total_tasks << "\n"
            << "scheduled           : " << r.scheduled << "\n"
            << "deadline hits       : " << r.deadline_hits << "\n"
            << "missed in execution : " << r.exec_misses
            << "  (wall-clock jitter can cause a few)\n"
            << "culled              : " << r.culled << "\n"
            << "rejected            : " << r.rejected << "\n"
            << "mailbox overflows   : " << r.overflow_drops
            << "  (readmitted " << r.readmissions << ", backpressure pauses "
            << r.backpressure_waits << ")\n"
            << "hit ratio           : " << r.hit_ratio() * 100.0 << "%\n"
            << "scheduling phases   : " << r.phases << "\n"
            << "elapsed             : "
            << (r.finish_time - SimTime::zero()).millis() << " ms\n";
  const std::uint64_t accounted =
      r.deadline_hits + r.exec_misses + r.culled + r.rejected;
  std::cout << "conservation        : " << accounted << "/" << r.total_tasks
            << (accounted == r.total_tasks ? " (balanced)" : " (VIOLATED)")
            << "\n";
  return 0;
}
