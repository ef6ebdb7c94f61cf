#include "tasks/workload.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace rtds::tasks {

void validate_task_body_config(const WorkloadConfig& cfg) {
  RTDS_REQUIRE(cfg.num_processors >= 1, "workload: need >= 1 processor");
  RTDS_REQUIRE(cfg.num_processors <= AffinitySet::kMaxProcessors,
               "workload: too many processors");
  RTDS_REQUIRE(cfg.processing_min > SimDuration::zero() &&
                   cfg.processing_min <= cfg.processing_max,
               "workload: bad processing time range");
  RTDS_REQUIRE(cfg.affinity_degree >= 0.0 && cfg.affinity_degree <= 1.0,
               "workload: affinity degree outside [0,1]");
  RTDS_REQUIRE(cfg.laxity_min > 0.0 && cfg.laxity_min <= cfg.laxity_max,
               "workload: bad laxity range");
  RTDS_REQUIRE(!cfg.max_start_offset.is_negative(),
               "workload: negative start offset");
  RTDS_REQUIRE(cfg.actual_fraction_min > 0.0 &&
                   cfg.actual_fraction_min <= cfg.actual_fraction_max &&
                   cfg.actual_fraction_max <= 1.0,
               "workload: bad actual-cost fraction range");
  RTDS_REQUIRE(cfg.gang_fraction >= 0.0 && cfg.gang_fraction <= 1.0,
               "workload: gang fraction outside [0,1]");
  RTDS_REQUIRE(cfg.gang_fraction == 0.0 ||
                   (cfg.gang_max_workers >= 2 &&
                    cfg.gang_max_workers <= cfg.num_processors),
               "workload: gang_max_workers must be in [2, num_processors]");
  RTDS_REQUIRE(cfg.num_releases >= 1, "workload: need >= 1 release");
  RTDS_REQUIRE(cfg.num_releases == 1 ||
                   cfg.release_period > SimDuration::zero(),
               "workload: repeated releases need a positive period");
}

Task draw_task_body(const WorkloadConfig& cfg, TaskId id, SimTime arrival,
                    Xoshiro256ss& rng) {
  Task t;
  t.id = id;
  t.arrival = arrival;

  t.processing =
      rng.uniform_duration(cfg.processing_min, cfg.processing_max);

  // Bernoulli affinity per processor; force at least one affine
  // processor so the task is executable without communication somewhere.
  for (ProcessorId p = 0; p < cfg.num_processors; ++p) {
    if (rng.bernoulli(cfg.affinity_degree)) t.affinity.add(p);
  }
  if (t.affinity.empty()) {
    t.affinity.add(static_cast<ProcessorId>(
        rng.uniform_int(0, std::int64_t(cfg.num_processors) - 1)));
  }

  if (cfg.actual_fraction_max < 1.0 ||
      cfg.actual_fraction_min < cfg.actual_fraction_max) {
    const double fraction = rng.uniform_double(cfg.actual_fraction_min,
                                               cfg.actual_fraction_max);
    t.actual_processing = SimDuration{std::max<std::int64_t>(
        1, std::int64_t(std::llround(fraction * double(t.processing.us))))};
  }

  t.earliest_start = t.arrival;
  if (cfg.max_start_offset > SimDuration::zero()) {
    t.earliest_start =
        t.arrival +
        rng.uniform_duration(SimDuration::zero(), cfg.max_start_offset);
  }

  const double laxity = rng.uniform_double(cfg.laxity_min, cfg.laxity_max);
  t.deadline =
      t.earliest_start +
      SimDuration{std::int64_t(std::llround(laxity * double(t.processing.us)))};

  // Gang width draw comes last and only when the dial is on, so legacy
  // configs consume exactly the historic rng stream.
  if (cfg.gang_fraction > 0.0 && rng.bernoulli(cfg.gang_fraction)) {
    const auto hi = std::int64_t(
        std::min(cfg.gang_max_workers, cfg.num_processors));
    t.workers_required =
        static_cast<std::uint32_t>(rng.uniform_int(2, std::max<std::int64_t>(2, hi)));
  }
  return t;
}

std::vector<Task> generate_workload(const WorkloadConfig& cfg,
                                    Xoshiro256ss& rng) {
  validate_task_body_config(cfg);
  if (cfg.arrival == ArrivalPattern::kPeriodicBurst) {
    RTDS_REQUIRE(cfg.burst_size >= 1, "workload: burst size must be >= 1");
    RTDS_REQUIRE(cfg.burst_interval > SimDuration::zero(),
                 "workload: burst interval must be positive");
  }

  std::vector<Task> out;
  out.reserve(std::size_t{cfg.num_tasks} * cfg.num_releases);

  SimTime arrival_cursor = cfg.start;
  for (std::uint32_t i = 0; i < cfg.num_tasks; ++i) {
    SimTime arrival = cfg.start;
    switch (cfg.arrival) {
      case ArrivalPattern::kBursty:
        break;
      case ArrivalPattern::kPoisson: {
        const double gap =
            rng.exponential(double(cfg.mean_interarrival.us));
        arrival_cursor += SimDuration{std::int64_t(std::llround(gap))};
        arrival = arrival_cursor;
        break;
      }
      case ArrivalPattern::kPeriodicBurst:
        arrival =
            cfg.start + cfg.burst_interval * std::int64_t(i / cfg.burst_size);
        break;
    }
    // One body draw per logical task; releases are time-shifted copies
    // with fresh deadlines (periodic task model). Release r of logical
    // task i gets id first_id + i*num_releases + r, so ids stay unique
    // and attributable to their logical task.
    const Task body = draw_task_body(
        cfg, cfg.first_id + i * cfg.num_releases, arrival, rng);
    out.push_back(body);
    for (std::uint32_t r = 1; r < cfg.num_releases; ++r) {
      Task rel = body;
      const SimDuration shift = cfg.release_period * std::int64_t(r);
      rel.id = body.id + r;
      rel.arrival = body.arrival + shift;
      rel.earliest_start = body.earliest_start + shift;
      rel.deadline = body.deadline + shift;
      out.push_back(rel);
    }
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const Task& a, const Task& b) {
                     return a.arrival < b.arrival;
                   });
  return out;
}

}  // namespace rtds::tasks
