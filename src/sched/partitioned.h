// Multi-host partitioned scheduling (extension).
//
// The Figure-5 experiments show the single dedicated scheduling processor
// becoming the bottleneck: past the point where the host can evaluate
// candidates fast enough, adding workers stops helping (D-COLS hits this
// within the paper's 2..10 range; RT-SADS hits it at larger m). The
// natural "scalability to the high-end" step is to shard the machine:
// H scheduling hosts, each owning m/H workers and running the full
// RT-SADS pipeline over the tasks routed to its shard.
//
// Routing: every task goes to the shard holding the largest share of its
// affinity set (ties broken by current task count, then shard id). Within
// a shard the task's affinity is intersected with the shard's workers; a
// task whose affinity lies wholly elsewhere keeps all shard workers as
// remote (non-affine) candidates, exactly as the single-host scheduler
// would treat a non-affine placement.
//
// This is deliberately simple — no task migration between shards and no
// global rebalancing — so the measured benefit is purely "more scheduling
// throughput", the quantity the paper's bottleneck analysis is about.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "machine/cluster.h"
#include "sched/pipeline.h"

namespace rtds::sched {

struct PartitionedConfig {
  std::uint32_t num_shards{2};
  std::uint32_t total_workers{16};
  SimDuration comm_cost{msec(5)};
  machine::ReclaimMode reclaim{machine::ReclaimMode::kWorstCase};
  PipelineConfig driver;
};

/// Combined outcome: per-shard metrics plus the totals that matter.
struct PartitionedMetrics {
  std::vector<RunMetrics> shards;

  [[nodiscard]] std::uint64_t total_tasks() const;
  [[nodiscard]] std::uint64_t deadline_hits() const;
  [[nodiscard]] std::uint64_t exec_misses() const;
  [[nodiscard]] std::uint64_t culled() const;
  [[nodiscard]] std::uint64_t rejected() const;
  [[nodiscard]] double hit_ratio() const;
  [[nodiscard]] SimTime finish_time() const;

  /// Cross-shard task conservation: no shard lost a task silently.
  [[nodiscard]] bool conserved() const {
    return total_tasks() ==
           deadline_hits() + exec_misses() + culled() + rejected();
  }
};

/// Routes `workload` across shards and runs the shared PhasePipeline once
/// per shard, each on a SimBackend over its own cluster and clock
/// (sched/backend.h). Workers
/// [s * (total/H), (s+1) * (total/H)) belong to shard s; requires
/// total_workers % num_shards == 0. The algorithm and quantum policy are
/// shared (each answer depends only on its phase's inputs). An optional
/// observer sees every shard's phases (shards run sequentially, in shard
/// order) — the fuzz oracles use it to audit Q_s against the Fig. 3 bound
/// per shard.
PartitionedMetrics run_partitioned(const PhaseAlgorithm& algorithm,
                                   const QuantumPolicy& quantum,
                                   const PartitionedConfig& config,
                                   const std::vector<tasks::Task>& workload,
                                   PhaseObserver* observer = nullptr);

/// Exposed for tests: shard choice for one task under the routing rule.
std::uint32_t route_shard(const tasks::Task& task, std::uint32_t num_shards,
                          std::uint32_t workers_per_shard,
                          const std::vector<std::uint64_t>& shard_counts);

}  // namespace rtds::sched
