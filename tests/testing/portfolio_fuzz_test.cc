// Oracle sweeps pinned to each non-default portfolio member.
//
// fuzz_smoke already sweeps the mixed portfolio; these tests pin the
// algorithm so every greedy baseline and both partitioned entrants each get
// a dedicated pass through the full oracle registry (correction theorem,
// conservation ledger, schedule validity, quantum bound, gang occupancy).
// The threaded backend is left off: its wall-clock runs are
// algorithm-independent plumbing and fuzz_smoke covers them.
#include <gtest/gtest.h>

#include <string>

#include "testing/harness.h"
#include "testing/scenario.h"

namespace rtds::testing {
namespace {

void sweep_pinned(const std::string& spec) {
  HarnessOptions options;
  options.run_threaded = false;
  for (std::uint64_t i = 0; i < 8; ++i) {
    Scenario scenario = generate_scenario(0xA160, i);
    scenario.algo_spec = spec;
    const ScenarioResult result = run_scenario(scenario, options);
    EXPECT_TRUE(result.ok()) << result.to_string();
  }
}

TEST(PortfolioFuzzTest, EdfFirstFitPassesAllOracles) { sweep_pinned("edf_ff"); }

TEST(PortfolioFuzzTest, EdfBestFitPassesAllOracles) { sweep_pinned("edf_bf"); }

TEST(PortfolioFuzzTest, MyopicPassesAllOracles) {
  sweep_pinned("myopic?window=3");
}

TEST(PortfolioFuzzTest, PackingPassesAllOracles) {
  sweep_pinned("packing");
  sweep_pinned("packing?fit=best&order=lpt");
}

TEST(PortfolioFuzzTest, MulticritPassesAllOracles) {
  sweep_pinned("multicrit");
  sweep_pinned("multicrit?sort=min_slack&fit=worst");
  sweep_pinned("multicrit?sort=lpt&fit=next");
}

TEST(PortfolioFuzzTest, InvalidPinnedSpecIsAViolationNotACrash) {
  // An unknown key, and a spec from a replay token of a build whose search
  // entries still took a thread count.
  for (const char* spec : {"no_such_algo?x=1", "rt_sads?threads=4"}) {
    Scenario scenario = generate_scenario(0xA160, 0);
    scenario.algo_spec = spec;
    HarnessOptions options;
    options.run_threaded = false;
    const ScenarioResult result = run_scenario(scenario, options);
    ASSERT_FALSE(result.ok()) << spec;
    ASSERT_FALSE(result.violations.empty()) << spec;
    EXPECT_NE(result.violations.front().find("harness(algorithm)"),
              std::string::npos)
        << result.violations.front();
  }
}

}  // namespace
}  // namespace rtds::testing
