// Periodic releases as a first-class scenario axis: closed release trains
// (num_releases x release_period_us) and the open kOpenPeriodic stream must
// replay identically on the simulated backend, survive the threaded backend
// with balanced books, and one golden scenario pins its exact ledger counts
// so a silent change to release replication shows up as a diff, not a drift.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "testing/harness.h"
#include "testing/oracles.h"
#include "testing/scenario.h"

namespace rtds::testing {
namespace {

// Golden counts for GoldenPeriodicScenarioLedgerCounts (see that test).
constexpr std::uint64_t kGoldenScheduled = 98;
constexpr std::uint64_t kGoldenHits = 98;
constexpr std::uint64_t kGoldenCulled = 2;
constexpr std::size_t kGoldenPhases = 50;

TEST(PeriodicReleaseTest, ClosedReleaseTrainReplaysIdenticallyOnDes) {
  HarnessOptions opts;
  opts.run_threaded = false;
  Scenario s;
  s.num_tasks = 30;
  s.num_releases = 3;
  s.release_period_us = 6000;
  const ScenarioResult r1 = run_scenario(s, opts);
  const ScenarioResult r2 = run_scenario(s, opts);
  EXPECT_TRUE(r1.ok()) << r1.to_string();
  // The replicated workload is what every backend saw: 30 bodies x 3.
  EXPECT_EQ(r1.sim.metrics.total_tasks, 90u);
  std::vector<std::string> diffs;
  oracle_metric_parity(r1.sim, r2.sim, diffs);
  EXPECT_TRUE(diffs.empty()) << diffs.front();
  EXPECT_EQ(r1.violations, r2.violations);
}

TEST(PeriodicReleaseTest, OpenPeriodicReplaysIdenticallyOnDes) {
  // The jittered release train is drawn from the scenario seed, so two runs
  // see the same arrivals to the microsecond: phase traces and latency
  // histograms must match exactly, like the other open kinds.
  HarnessOptions opts;
  opts.run_threaded = false;
  Scenario s = generate_scenario(0x9E10D1C, 3);
  s.open_arrival = kOpenPeriodic;
  s.release_period_us = 2500;
  s.release_jitter_us = 800;
  s.num_shards = 1;
  s.max_pending = 8;
  const ScenarioResult r1 = run_scenario(s, opts);
  const ScenarioResult r2 = run_scenario(s, opts);
  EXPECT_TRUE(r1.ok()) << r1.to_string();
  ASSERT_TRUE(r1.sim.latency.has_value());
  std::vector<std::string> diffs;
  oracle_metric_parity(r1.sim, r2.sim, diffs);
  EXPECT_TRUE(diffs.empty()) << diffs.front();
  EXPECT_EQ(r1.violations, r2.violations);
  ASSERT_EQ(r1.sim.phases.size(), r2.sim.phases.size());
  for (std::size_t i = 0; i < r1.sim.phases.size(); ++i) {
    EXPECT_EQ(r1.sim.phases[i].start, r2.sim.phases[i].start);
    EXPECT_EQ(r1.sim.phases[i].arrivals, r2.sim.phases[i].arrivals);
  }
}

TEST(PeriodicReleaseTest, ThreadedPeriodicCountsStableOnForgivingWorkload) {
  // Same contract as the other open kinds: with laxity far beyond
  // wall-clock jitter the threaded backend's terminal counts are stable
  // run to run, and the books balance (enforced by ok()).
  Scenario s;
  s.open_arrival = kOpenPeriodic;
  s.num_tasks = 24;
  s.workers = 4;
  s.num_shards = 1;
  s.release_period_us = 400;
  s.release_jitter_us = 100;
  s.max_pending = 0;
  s.max_start_offset_us = 0;
  s.reclaim = 0;
  s.laxity_min_centi = 5'000'000;
  s.laxity_max_centi = 5'000'000;
  s.refusal_period = 0;
  s.mailbox_capacity = 1024;
  s.delivery_retries = 3;
  const ScenarioResult r1 = run_scenario(s, HarnessOptions{});
  const ScenarioResult r2 = run_scenario(s, HarnessOptions{});
  ASSERT_TRUE(r1.threaded_ran);
  EXPECT_TRUE(r1.ok()) << r1.to_string();
  EXPECT_TRUE(r2.ok()) << r2.to_string();
  EXPECT_EQ(r1.threaded.metrics.scheduled, r2.threaded.metrics.scheduled);
  EXPECT_EQ(r1.threaded.metrics.culled, r2.threaded.metrics.culled);
  EXPECT_EQ(r1.threaded.metrics.deadline_hits,
            r2.threaded.metrics.deadline_hits);
  EXPECT_EQ(r1.threaded.metrics.total_tasks, s.num_tasks);
}

TEST(PeriodicReleaseTest, GoldenPeriodicScenarioLedgerCounts) {
  // One pinned release-train scenario: these exact counts were captured
  // from the DES at the introduction of the periodic axis. Any change is a
  // semantic change to release replication or scheduling, and must be
  // reviewed (and this golden re-recorded), never absorbed silently.
  HarnessOptions opts;
  opts.run_threaded = false;
  Scenario s;  // defaults: 4 workers, rt_sads, self-adjusting quantum
  s.seed = 99;
  s.num_tasks = 25;
  s.num_releases = 4;
  s.release_period_us = 8000;
  const ScenarioResult r = run_scenario(s, opts);
  EXPECT_TRUE(r.ok()) << r.to_string();
  EXPECT_EQ(r.sim.metrics.total_tasks, 100u);
  EXPECT_EQ(r.sim.metrics.scheduled, kGoldenScheduled);
  EXPECT_EQ(r.sim.metrics.deadline_hits, kGoldenHits);
  EXPECT_EQ(r.sim.metrics.culled, kGoldenCulled);
  EXPECT_EQ(r.sim.metrics.exec_misses, 0u);
  EXPECT_EQ(r.sim.phases.size(), kGoldenPhases);
}

}  // namespace
}  // namespace rtds::testing
