// String-keyed algorithm registry: spec parsing, canonical-name fixpoint,
// malformed-spec rejection, and config equivalence with the presets the
// FIG5/FIG6 goldens are pinned to.
#include "sched/registry.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "sched/algorithm.h"
#include "sched/portfolio.h"
#include "sched/presets.h"

namespace rtds::sched {
namespace {

const AlgorithmRegistry& reg() { return AlgorithmRegistry::builtin(); }

TEST(RegistryTest, ListsThePortfolio) {
  const std::vector<std::string> expected = {
      "d_cols", "edf_bf", "edf_ff", "multicrit", "myopic", "packing",
      "rt_sads", "search"};
  EXPECT_EQ(reg().keys(), expected);
  for (const std::string& key : expected) {
    EXPECT_TRUE(reg().contains(key));
    EXPECT_FALSE(reg().summary(key).empty());
  }
  EXPECT_FALSE(reg().contains("no_such_algo"));
  EXPECT_THROW((void)reg().summary("no_such_algo"), InvalidArgument);
}

TEST(RegistryTest, CanonicalNameIsAFixpoint) {
  // make(spec)->name() is the canonical spec; feeding it back must
  // reproduce itself exactly (spec -> algorithm -> name() -> spec).
  for (const char* spec : {
           "rt_sads", "rt_sads?cost=off", "rt_sads?order=min_comm",
           "rt_sads?cost=off&order=index", "d_cols",
           "d_cols?max_successors=8", "d_cols?level_order=least_loaded",
           "edf_ff", "edf_bf", "myopic", "myopic?window=3", "packing",
           "packing?fit=best", "packing?fit=best&order=lpt", "multicrit",
           "multicrit?sort=min_slack&fit=worst",
           "multicrit?sort=lpt&fit=next", "search",
           "search?repr=seq&strategy=best&cost=off"}) {
    const std::string name = reg().make(spec)->name();
    EXPECT_EQ(reg().make(name)->name(), name) << "spec " << spec;
  }
}

TEST(RegistryTest, CanonicalizationNormalizesSpecs) {
  // Default-valued parameters are dropped, numbers are normalized, and
  // surviving parameters appear in the factory's read order.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"rt_sads", "rt_sads"},
      {"rt_sads?cost=on", "rt_sads"},
      {"rt_sads?order=min_end&cost=on", "rt_sads"},
      {"rt_sads?order=index&cost=off", "rt_sads?cost=off&order=index"},
      {"d_cols?max_successors=0", "d_cols"},
      {"d_cols?max_successors=008", "d_cols?max_successors=8"},
      {"myopic?window=5", "myopic"},
      {"packing?order=edf&fit=first", "packing"},
      {"packing?order=lpt&fit=best", "packing?fit=best&order=lpt"},
      {"multicrit?fit=next&sort=lpt", "multicrit?sort=lpt&fit=next"},
      {"multicrit?sort=density", "multicrit"},
      {"search?repr=assign&strategy=dfs&cost=on", "search"},
      {"search?cost=off&strategy=best", "search?strategy=best&cost=off"},
  };
  for (const auto& [input, canonical] : cases) {
    const auto result = reg().canonicalize(input);
    ASSERT_TRUE(result.has_value()) << input;
    EXPECT_EQ(*result, canonical) << input;
    EXPECT_EQ(reg().make(input)->name(), canonical) << input;
  }
}

TEST(RegistryTest, RejectsMalformedSpecs) {
  for (const char* spec : {
           "",                         // empty key
           "RT_SADS",                  // uppercase is not a valid word
           "rt-sads",                  // hyphens are not a valid word
           "no_such_algo",             // unknown key
           "rt_sads?",                 // dangling '?'
           "rt_sads?cost",             // parameter without '='
           "rt_sads?cost=",            // empty value
           "rt_sads?=on",              // empty name
           "rt_sads?cost=on&",         // dangling '&'
           "rt_sads?cost=on&&order=index",  // empty parameter item
           "rt_sads?cost=on&cost=off",      // duplicate parameter
           "rt_sads?cost=on=off",           // '=' inside a value
           "rt_sads?bogus=1",               // unknown parameter
           "rt_sads?cost=maybe",            // out-of-domain choice
           "d_cols?max_successors=abc",     // non-numeric u32
           "d_cols?max_successors=-1",      // negative u32
           "myopic?window=0",               // below the domain floor
           "packing?fit=worst",   // worst-fit is multicrit-only
           "packing?sort=lpt",    // packing spells the axis 'order'
           "rt_sads?threads=4",   // a thread count is not a parameter,
           "search?threads=1",    // not even the old default
           "search?repr=tree",    // out-of-domain representation
           "edf_ff?threads=2",    // nor on a greedy baseline
       }) {
    EXPECT_THROW((void)reg().make(spec), InvalidArgument) << spec;
    EXPECT_FALSE(reg().canonicalize(spec).has_value()) << spec;
  }
}

TEST(RegistryTest, SearchEntrantsMatchThePresetConfigs) {
  // The FIG5/FIG6 goldens pin the preset-built RT-SADS and D-COLS; the
  // registry entries must build byte-equal SearchConfigs or the goldens
  // and the registry would silently diverge.
  const auto config_of = [](const PhaseAlgorithm& a) {
    const auto* ts = dynamic_cast<const TreeSearchAlgorithm*>(&a);
    EXPECT_NE(ts, nullptr);
    return ts->search_config();
  };
  const auto expect_same = [&](const PhaseAlgorithm& a,
                               const PhaseAlgorithm& b) {
    const auto ca = config_of(a);
    const auto cb = config_of(b);
    EXPECT_EQ(ca.representation, cb.representation);
    EXPECT_EQ(ca.strategy, cb.strategy);
    EXPECT_EQ(ca.task_order, cb.task_order);
    EXPECT_EQ(ca.processor_order, cb.processor_order);
    EXPECT_EQ(ca.level_processor_order, cb.level_processor_order);
    EXPECT_EQ(ca.use_load_balance_cost, cb.use_load_balance_cost);
    EXPECT_EQ(ca.max_successors, cb.max_successors);
  };
  expect_same(*reg().make("rt_sads"), *make_rt_sads());
  expect_same(*reg().make("d_cols"), *make_d_cols());
  expect_same(*reg().make("d_cols?max_successors=3"), *make_d_cols_pruned(3));
  // The generic `search` key defaults to the RT-SADS configuration.
  expect_same(*reg().make("search"), *make_rt_sads());
}

TEST(RegistryTest, PartitionEntrantsWireTheConfigMatrix) {
  const auto config_of = [](const std::string& spec) {
    const auto algo = reg().make(spec);
    const auto* p = dynamic_cast<const PartitionScheduler*>(algo.get());
    EXPECT_NE(p, nullptr) << spec;
    return p->config();
  };
  EXPECT_EQ(config_of("packing").sort, PartitionSort::kDeadline);
  EXPECT_EQ(config_of("packing").fit, PartitionFit::kFirstFit);
  EXPECT_EQ(config_of("packing?fit=best&order=lpt").sort, PartitionSort::kLpt);
  EXPECT_EQ(config_of("packing?fit=best&order=lpt").fit,
            PartitionFit::kBestFit);
  EXPECT_EQ(config_of("multicrit").sort, PartitionSort::kDensity);
  EXPECT_EQ(config_of("multicrit?sort=min_slack&fit=worst").sort,
            PartitionSort::kMinSlack);
  EXPECT_EQ(config_of("multicrit?sort=min_slack&fit=worst").fit,
            PartitionFit::kWorstFit);
  EXPECT_EQ(config_of("multicrit?sort=edf&fit=next").fit,
            PartitionFit::kNextFit);
}

}  // namespace
}  // namespace rtds::sched
