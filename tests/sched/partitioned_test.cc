#include "sched/partitioned.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "sched/backend.h"
#include "sched/quantum.h"
#include "sched/registry.h"
#include "tasks/workload.h"

namespace rtds::sched {
namespace {

tasks::Task affine_task(tasks::TaskId id, std::vector<std::uint32_t> workers) {
  tasks::Task t;
  t.id = id;
  t.processing = msec(2);
  t.deadline = SimTime::zero() + msec(200);
  for (std::uint32_t w : workers) t.affinity.add(w);
  return t;
}

TEST(RouteShardTest, PicksShardWithMostAffinity) {
  // 2 shards x 4 workers: task affine to {0, 1, 5} -> shard 0 (2 vs 1).
  const std::vector<std::uint64_t> counts{0, 0};
  EXPECT_EQ(route_shard(affine_task(1, {0, 1, 5}), 2, 4, counts), 0u);
  EXPECT_EQ(route_shard(affine_task(2, {4, 5, 3}), 2, 4, counts), 1u);
}

TEST(RouteShardTest, TieBreaksOnShardCount) {
  // Equal affinity on both shards: the emptier shard wins.
  const std::vector<std::uint64_t> counts{10, 2};
  EXPECT_EQ(route_shard(affine_task(1, {0, 4}), 2, 4, counts), 1u);
  const std::vector<std::uint64_t> counts2{2, 10};
  EXPECT_EQ(route_shard(affine_task(1, {0, 4}), 2, 4, counts2), 0u);
}

TEST(RouteShardTest, NoLocalAffinityStillRoutesSomewhere) {
  const std::vector<std::uint64_t> counts{0, 3};
  // Affinity only on shard 1's workers.
  EXPECT_EQ(route_shard(affine_task(1, {6, 7}), 2, 4, counts), 1u);
}

TEST(RunPartitionedTest, ValidatesConfiguration) {
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum();
  PartitionedConfig cfg;
  cfg.num_shards = 3;
  cfg.total_workers = 8;  // does not divide
  EXPECT_THROW(run_partitioned(*algo, *q, cfg, {}), InvalidArgument);
  cfg.num_shards = 0;
  EXPECT_THROW(run_partitioned(*algo, *q, cfg, {}), InvalidArgument);
  cfg.num_shards = 9;
  cfg.total_workers = 8;
  EXPECT_THROW(run_partitioned(*algo, *q, cfg, {}), InvalidArgument);
}

TEST(RunPartitionedTest, SingleShardMatchesSimBackendExactly) {
  // K=1 partitioned-vs-sim parity: the partitioned path must be the SAME
  // pipeline over an equivalent host, so every RunMetrics field agrees.
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(10));
  tasks::WorkloadConfig wc;
  wc.num_tasks = 150;
  wc.num_processors = 4;
  wc.laxity_min = 4.0;
  wc.laxity_max = 12.0;
  Xoshiro256ss rng(3);
  const auto wl = tasks::generate_workload(wc, rng);

  PartitionedConfig cfg;
  cfg.num_shards = 1;
  cfg.total_workers = 4;
  cfg.comm_cost = msec(2);
  const PartitionedMetrics pm = run_partitioned(*algo, *q, cfg, wl);

  machine::Cluster cluster(4, machine::Interconnect::cut_through(4, msec(2)));
  sim::Simulator sim;
  const PhasePipeline pipeline(*algo, *q, cfg.driver);
  SimBackend backend(cluster, sim);
  const RunMetrics m = pipeline.run(wl, backend);

  ASSERT_EQ(pm.shards.size(), 1u);
  const RunMetrics& s = pm.shards[0];
  EXPECT_EQ(s.total_tasks, m.total_tasks);
  EXPECT_EQ(s.scheduled, m.scheduled);
  EXPECT_EQ(s.deadline_hits, m.deadline_hits);
  EXPECT_EQ(s.exec_misses, m.exec_misses);
  EXPECT_EQ(s.culled, m.culled);
  EXPECT_EQ(s.overflow_drops, m.overflow_drops);
  EXPECT_EQ(s.phases, m.phases);
  EXPECT_EQ(s.vertices_generated, m.vertices_generated);
  EXPECT_EQ(s.expansions, m.expansions);
  EXPECT_EQ(s.backtracks, m.backtracks);
  EXPECT_EQ(s.dead_ends, m.dead_ends);
  EXPECT_EQ(s.leaves, m.leaves);
  EXPECT_EQ(s.budget_exhaustions, m.budget_exhaustions);
  EXPECT_EQ(s.finish_time, m.finish_time);
  EXPECT_EQ(s.scheduling_time, m.scheduling_time);
  EXPECT_EQ(s.allocated_quantum, m.allocated_quantum);
  EXPECT_EQ(s.min_quantum_seen, m.min_quantum_seen);
  EXPECT_EQ(s.max_quantum_seen, m.max_quantum_seen);
}

TEST(RunPartitionedTest, TheoremHoldsAcrossShards) {
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(10));
  tasks::WorkloadConfig wc;
  wc.num_tasks = 400;
  wc.num_processors = 8;
  wc.affinity_degree = 0.25;
  wc.laxity_min = 3.0;
  wc.laxity_max = 9.0;
  Xoshiro256ss rng(4);
  const auto wl = tasks::generate_workload(wc, rng);

  PartitionedConfig cfg;
  cfg.num_shards = 2;
  cfg.total_workers = 8;
  const PartitionedMetrics pm = run_partitioned(*algo, *q, cfg, wl);
  EXPECT_EQ(pm.exec_misses(), 0u);
  EXPECT_EQ(pm.total_tasks(), 400u);
  EXPECT_EQ(pm.shards.size(), 2u);
  // Routing sends work to both shards with this affinity spread.
  EXPECT_GT(pm.shards[0].total_tasks, 0u);
  EXPECT_GT(pm.shards[1].total_tasks, 0u);
}

TEST(RunPartitionedTest, CrossShardTasksPayCommOnce) {
  // One task affine only to shard 1 but forced to shard 0 via counts is
  // not directly constructible through the public API; instead check the
  // aggregate: tasks with affinity entirely on one shard execute there
  // (no shard gets a foreign task when routing is free to choose).
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(10));
  std::vector<tasks::Task> wl;
  for (std::uint32_t i = 0; i < 20; ++i) {
    tasks::Task t = affine_task(i, {i % 2 == 0 ? 0u : 4u});
    t.deadline = SimTime::zero() + msec(500);
    wl.push_back(t);
  }
  PartitionedConfig cfg;
  cfg.num_shards = 2;
  cfg.total_workers = 8;
  const PartitionedMetrics pm = run_partitioned(*algo, *q, cfg, wl);
  EXPECT_EQ(pm.shards[0].total_tasks, 10u);
  EXPECT_EQ(pm.shards[1].total_tasks, 10u);
  EXPECT_EQ(pm.deadline_hits(), 20u);
}

TEST(RunPartitionedTest, ShardingHelpsWhenHostBound) {
  // A large bursty workload on many workers: two hosts beat one.
  const auto algo = AlgorithmRegistry::builtin().make("rt_sads");
  const auto q = make_self_adjusting_quantum(usec(100), msec(20));
  tasks::WorkloadConfig wc;
  wc.num_tasks = 2000;
  wc.num_processors = 24;
  wc.affinity_degree = 0.2;
  wc.laxity_min = 8.0;
  wc.laxity_max = 15.0;
  Xoshiro256ss rng(5);
  const auto wl = tasks::generate_workload(wc, rng);

  PartitionedConfig one;
  one.num_shards = 1;
  one.total_workers = 24;
  one.driver.vertex_generation_cost = usec(2);
  PartitionedConfig two = one;
  two.num_shards = 2;
  const double h1 = run_partitioned(*algo, *q, one, wl).hit_ratio();
  const double h2 = run_partitioned(*algo, *q, two, wl).hit_ratio();
  EXPECT_GT(h2, h1);
}

}  // namespace
}  // namespace rtds::sched
