// Synthetic workload generation.
//
// The paper's evaluation drives the schedulers with database transactions
// (src/db provides that adapter); this module provides the equivalent
// synthetic task workloads used by the unit/property tests, the ablation
// benches, and the quickstart example: bursty or Poisson arrivals, uniform
// processing times, probabilistic task-to-processor affinity (the "degree
// of affinity" parameter of Sec. 2) and proportional deadlines.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "tasks/task.h"

namespace rtds::tasks {

/// How task arrival times are drawn.
enum class ArrivalPattern {
  kBursty,         ///< all tasks arrive at `start` simultaneously (Sec. 5.1)
  kPoisson,        ///< exponential inter-arrival times with the given mean
  kPeriodicBurst,  ///< bursts of `burst_size` tasks every `burst_interval`
};

/// Parameters of a synthetic workload.
struct WorkloadConfig {
  std::uint32_t num_tasks{100};
  std::uint32_t num_processors{4};  ///< worker count (affinity domain)

  ArrivalPattern arrival{ArrivalPattern::kBursty};
  SimTime start{SimTime::zero()};
  SimDuration mean_interarrival{msec(1)};  ///< Poisson only
  std::uint32_t burst_size{10};            ///< periodic bursts only
  SimDuration burst_interval{msec(20)};    ///< periodic bursts only

  SimDuration processing_min{msec(1)};
  SimDuration processing_max{msec(10)};

  /// Degree of affinity (Sec. 2): probability that a task has affinity with
  /// any given processor. Each task is guaranteed at least one affine
  /// processor (a task with data on no processor cannot execute).
  double affinity_degree{0.3};

  /// Deadline = arrival + laxity_factor * processing, with laxity_factor
  /// drawn uniformly from [laxity_min, laxity_max]. The paper's SF maps to
  /// laxity via Deadline = SF * 10 * cost; use laxity_min == laxity_max ==
  /// 10*SF to reproduce that exactly.
  double laxity_min{10.0};
  double laxity_max{10.0};

  /// Start-time constraints (footnote 1 task model): each task's earliest
  /// start is arrival + U[0, max_start_offset]. Zero (default) disables
  /// the constraint. Deadlines are measured from the earliest start so the
  /// generated tasks remain individually schedulable.
  SimDuration max_start_offset{SimDuration::zero()};

  /// Resource-reclaiming extension: actual execution demand is drawn as
  /// processing * U[actual_fraction_min, actual_fraction_max]. With both at
  /// 1.0 (default) tasks have no reclaimable slack and actual_processing is
  /// left unset.
  double actual_fraction_min{1.0};
  double actual_fraction_max{1.0};

  /// Gang/moldable jobs (arXiv:0805.3237): each task is independently a
  /// gang with probability `gang_fraction`; a gang's width is drawn
  /// uniformly from [2, min(gang_max_workers, num_processors)]. With
  /// gang_fraction == 0 (default) no gang draws are made at all, so legacy
  /// rng streams are byte-identical.
  double gang_fraction{0.0};
  std::uint32_t gang_max_workers{2};

  /// Periodic releases (the canonical real-time task model): each of the
  /// `num_tasks` logical tasks re-releases `num_releases` times, every
  /// `release_period` (so the generated workload holds
  /// num_tasks * num_releases jobs). Release r of a logical task is a copy
  /// of its body with arrival / earliest start / deadline shifted by
  /// r * release_period — fresh deadlines per release. The caller bounds
  /// the horizon (hyperperiod) by choosing num_releases. With
  /// num_releases == 1 (default) generation is byte-identical to the
  /// one-shot model.
  SimDuration release_period{SimDuration::zero()};
  std::uint32_t num_releases{1};

  /// First task id to assign (ids are sequential from here).
  TaskId first_id{0};
};

/// Generates `cfg.num_tasks * cfg.num_releases` tasks, sorted by arrival
/// time. All randomness comes from `rng` (deterministic given the seed).
std::vector<Task> generate_workload(const WorkloadConfig& cfg,
                                    Xoshiro256ss& rng);

/// Draws the non-arrival fields of one task (processing, affinity,
/// reclaimable slack, start-time offset, deadline) with exactly the rng
/// draw order generate_workload uses per task. This is the shared task-body
/// distribution: the open-arrival sources (tasks/arrival_source.h) pair it
/// with their own arrival processes, so a streamed task population is
/// statistically identical to a generated closed workload with the same
/// config. Does not validate `cfg` (generate_workload and the sources do).
Task draw_task_body(const WorkloadConfig& cfg, TaskId id, SimTime arrival,
                    Xoshiro256ss& rng);

/// Throws InvalidArgument unless the task-body fields of `cfg` (processing
/// range, affinity degree, laxity range, start offset, actual fractions,
/// processor count) are valid. Shared by generate_workload and the
/// open-arrival sources.
void validate_task_body_config(const WorkloadConfig& cfg);

}  // namespace rtds::tasks
