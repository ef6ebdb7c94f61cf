#include "tasks/workload.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace rtds::tasks {
namespace {

WorkloadConfig base_config() {
  WorkloadConfig cfg;
  cfg.num_tasks = 200;
  cfg.num_processors = 8;
  cfg.processing_min = msec(1);
  cfg.processing_max = msec(10);
  cfg.affinity_degree = 0.3;
  cfg.laxity_min = 5.0;
  cfg.laxity_max = 10.0;
  return cfg;
}

TEST(WorkloadTest, GeneratesRequestedCount) {
  Xoshiro256ss rng(1);
  const auto tasks = generate_workload(base_config(), rng);
  EXPECT_EQ(tasks.size(), 200u);
}

TEST(WorkloadTest, SequentialIdsFromFirstId) {
  WorkloadConfig cfg = base_config();
  cfg.first_id = 1000;
  Xoshiro256ss rng(1);
  const auto tasks = generate_workload(cfg, rng);
  // Bursty arrivals: stable sort preserves generation order.
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].id, 1000 + i);
  }
}

TEST(WorkloadTest, BurstyArrivalsAllAtStart) {
  WorkloadConfig cfg = base_config();
  cfg.start = SimTime{500};
  Xoshiro256ss rng(2);
  for (const Task& t : generate_workload(cfg, rng)) {
    EXPECT_EQ(t.arrival, SimTime{500});
  }
}

TEST(WorkloadTest, PoissonArrivalsSortedAndIncreasing) {
  WorkloadConfig cfg = base_config();
  cfg.arrival = ArrivalPattern::kPoisson;
  cfg.mean_interarrival = msec(2);
  Xoshiro256ss rng(3);
  const auto tasks = generate_workload(cfg, rng);
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    EXPECT_LE(tasks[i - 1].arrival, tasks[i].arrival);
  }
  EXPECT_GT(tasks.back().arrival, cfg.start);
}

TEST(WorkloadTest, PoissonMeanGapRoughlyMatches) {
  WorkloadConfig cfg = base_config();
  cfg.num_tasks = 5000;
  cfg.arrival = ArrivalPattern::kPoisson;
  cfg.mean_interarrival = msec(2);
  Xoshiro256ss rng(4);
  const auto tasks = generate_workload(cfg, rng);
  const double total_us = double((tasks.back().arrival - cfg.start).us);
  EXPECT_NEAR(total_us / double(cfg.num_tasks), 2000.0, 200.0);
}

TEST(WorkloadTest, ProcessingTimesWithinBounds) {
  Xoshiro256ss rng(5);
  for (const Task& t : generate_workload(base_config(), rng)) {
    EXPECT_GE(t.processing, msec(1));
    EXPECT_LE(t.processing, msec(10));
  }
}

TEST(WorkloadTest, EveryTaskHasAtLeastOneAffineProcessor) {
  WorkloadConfig cfg = base_config();
  cfg.affinity_degree = 0.0;  // forces the fallback path
  Xoshiro256ss rng(6);
  for (const Task& t : generate_workload(cfg, rng)) {
    EXPECT_EQ(t.affinity.count(), 1u);
  }
}

TEST(WorkloadTest, FullAffinityDegreeCoversAllProcessors) {
  WorkloadConfig cfg = base_config();
  cfg.affinity_degree = 1.0;
  Xoshiro256ss rng(7);
  for (const Task& t : generate_workload(cfg, rng)) {
    EXPECT_EQ(t.affinity.count(), cfg.num_processors);
  }
}

TEST(WorkloadTest, AffinityDegreeMatchesProbability) {
  WorkloadConfig cfg = base_config();
  cfg.num_tasks = 5000;
  cfg.affinity_degree = 0.4;
  Xoshiro256ss rng(8);
  const auto tasks = generate_workload(cfg, rng);
  double total = 0;
  for (const Task& t : tasks) total += t.affinity.count();
  const double mean_degree =
      total / double(tasks.size()) / double(cfg.num_processors);
  // The at-least-one fallback biases slightly upward; allow for it.
  EXPECT_NEAR(mean_degree, 0.4, 0.03);
}

TEST(WorkloadTest, DeadlinesRespectLaxityRange) {
  Xoshiro256ss rng(9);
  for (const Task& t : generate_workload(base_config(), rng)) {
    const double window = double((t.deadline - t.arrival).us);
    const double p = double(t.processing.us);
    EXPECT_GE(window, 5.0 * p - 1.0);
    EXPECT_LE(window, 10.0 * p + 1.0);
  }
}

TEST(WorkloadTest, DeterministicGivenSeed) {
  Xoshiro256ss rng1(10), rng2(10);
  const auto a = generate_workload(base_config(), rng1);
  const auto b = generate_workload(base_config(), rng2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].processing, b[i].processing);
    EXPECT_EQ(a[i].deadline, b[i].deadline);
    EXPECT_EQ(a[i].affinity.raw(), b[i].affinity.raw());
  }
}

TEST(WorkloadTest, ValidatesConfig) {
  Xoshiro256ss rng(11);
  WorkloadConfig cfg = base_config();
  cfg.num_processors = 0;
  EXPECT_THROW(generate_workload(cfg, rng), InvalidArgument);
  cfg = base_config();
  cfg.processing_min = msec(10);
  cfg.processing_max = msec(1);
  EXPECT_THROW(generate_workload(cfg, rng), InvalidArgument);
  cfg = base_config();
  cfg.affinity_degree = 1.5;
  EXPECT_THROW(generate_workload(cfg, rng), InvalidArgument);
  cfg = base_config();
  cfg.laxity_min = 0.0;
  EXPECT_THROW(generate_workload(cfg, rng), InvalidArgument);
}

TEST(WorkloadTest, GangFractionDrawsBoundedWidths) {
  WorkloadConfig cfg = base_config();
  cfg.num_processors = 4;
  cfg.gang_fraction = 0.6;
  cfg.gang_max_workers = 3;
  Xoshiro256ss rng(20);
  const auto wl = generate_workload(cfg, rng);
  std::uint32_t gangs = 0;
  for (const Task& t : wl) {
    EXPECT_GE(t.workers_required, 1u);
    EXPECT_LE(t.workers_required, 3u);
    EXPECT_NE(t.workers_required, 0u);
    if (t.workers_required > 1) ++gangs;
  }
  // 0.6 of 200 tasks: overwhelmingly unlikely to see none (or all).
  EXPECT_GT(gangs, 0u);
  EXPECT_LT(gangs, wl.size());
}

TEST(WorkloadTest, GangWidthClampedToMachine) {
  WorkloadConfig cfg = base_config();
  cfg.num_processors = 2;
  cfg.gang_fraction = 1.0;
  cfg.gang_max_workers = 2;
  Xoshiro256ss rng(21);
  const auto wl = generate_workload(cfg, rng);
  for (const Task& t : wl) EXPECT_EQ(t.workers_required, 2u);
}

TEST(WorkloadTest, PeriodicReleasesReplicateBodiesWithShiftedWindows) {
  WorkloadConfig cfg = base_config();
  cfg.num_tasks = 30;
  cfg.num_releases = 3;
  cfg.release_period = msec(5);
  cfg.first_id = 100;
  Xoshiro256ss rng(22);
  const auto wl = generate_workload(cfg, rng);
  ASSERT_EQ(wl.size(), 90u);
  // Regenerate the one-shot bodies from the same seed: release r of logical
  // task i must be that body with id +r and its whole window shifted by
  // r * period.
  WorkloadConfig one_shot = cfg;
  one_shot.num_releases = 1;
  one_shot.release_period = SimDuration::zero();
  Xoshiro256ss rng2(22);
  const auto bodies = generate_workload(one_shot, rng2);
  ASSERT_EQ(bodies.size(), 30u);
  std::uint32_t matched = 0;
  for (const Task& t : wl) {
    const std::uint32_t logical =
        static_cast<std::uint32_t>((t.id - cfg.first_id) / cfg.num_releases);
    const std::uint32_t release =
        static_cast<std::uint32_t>((t.id - cfg.first_id) % cfg.num_releases);
    ASSERT_LT(logical, bodies.size());
    // One-shot ids are first_id + i; the replicated scheme strides them.
    const Task& body = bodies[logical];
    const SimDuration shift = cfg.release_period * std::int64_t(release);
    EXPECT_EQ(t.processing, body.processing);
    EXPECT_EQ(t.affinity.raw(), body.affinity.raw());
    EXPECT_EQ(t.arrival, body.arrival + shift);
    EXPECT_EQ(t.deadline, body.deadline + shift);
    EXPECT_EQ(t.earliest_start, body.earliest_start + shift);
    ++matched;
  }
  EXPECT_EQ(matched, 90u);
  // Still sorted by arrival.
  for (std::size_t i = 1; i < wl.size(); ++i) {
    EXPECT_GE(wl[i].arrival, wl[i - 1].arrival);
  }
}

TEST(WorkloadTest, ValidatesGangAndReleaseConfig) {
  Xoshiro256ss rng(23);
  WorkloadConfig cfg = base_config();
  cfg.gang_fraction = 1.5;
  EXPECT_THROW(generate_workload(cfg, rng), InvalidArgument);
  cfg = base_config();
  cfg.gang_fraction = 0.5;
  cfg.gang_max_workers = 1;  // a "gang" of one is a contradiction
  EXPECT_THROW(generate_workload(cfg, rng), InvalidArgument);
  cfg = base_config();
  cfg.gang_fraction = 0.5;
  cfg.gang_max_workers = cfg.num_processors + 1;  // wider than the machine
  EXPECT_THROW(generate_workload(cfg, rng), InvalidArgument);
  cfg = base_config();
  cfg.num_releases = 0;
  EXPECT_THROW(generate_workload(cfg, rng), InvalidArgument);
  cfg = base_config();
  cfg.num_releases = 2;  // replication needs a positive period
  EXPECT_THROW(generate_workload(cfg, rng), InvalidArgument);
}

}  // namespace
}  // namespace rtds::tasks
