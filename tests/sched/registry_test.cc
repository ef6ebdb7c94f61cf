// String-keyed algorithm registry: spec parsing, canonical-name fixpoint,
// malformed-spec rejection, and the search configurations the FIG5/FIG6
// goldens are pinned to.
#include "sched/registry.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "sched/algorithm.h"
#include "sched/portfolio.h"

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
  // The FIG5/FIG6 goldens are pinned to these RT-SADS and D-COLS search
  // configurations; a registry change that moves a field moves the goldens.
  const auto config_of = [](const std::string& spec) {
    const auto algo = reg().make(spec);
    const auto* ts = dynamic_cast<const TreeSearchAlgorithm*>(algo.get());
    EXPECT_NE(ts, nullptr) << spec;
    return ts->search_config();
  };
  // RT-SADS (Sec. 4): assignment-oriented, EDF task selection, the
  // load-balancing cost function of Sec. 4.4.
  const search::SearchConfig rt = config_of("rt_sads");
  EXPECT_EQ(rt.representation, search::Representation::kAssignmentOriented);
  EXPECT_EQ(rt.strategy, search::SearchStrategy::kDepthFirst);
  EXPECT_EQ(rt.task_order, search::TaskOrder::kEarliestDeadline);
  EXPECT_EQ(rt.processor_order, search::ProcessorOrder::kMinEndOffset);
  EXPECT_EQ(rt.level_processor_order,
            search::LevelProcessorOrder::kRoundRobin);
  EXPECT_TRUE(rt.use_load_balance_cost);
  EXPECT_EQ(rt.max_successors, 0u);
  // D-COLS (Sec. 5.2): sequence-oriented, EDF-ordered branching, round-robin
  // level processor, no cost function.
  const search::SearchConfig dc = config_of("d_cols");
  EXPECT_EQ(dc.representation, search::Representation::kSequenceOriented);
  EXPECT_EQ(dc.strategy, search::SearchStrategy::kDepthFirst);
  EXPECT_EQ(dc.task_order, search::TaskOrder::kEarliestDeadline);
  EXPECT_EQ(dc.processor_order, search::ProcessorOrder::kMinEndOffset);
  EXPECT_EQ(dc.level_processor_order,
            search::LevelProcessorOrder::kRoundRobin);
  EXPECT_FALSE(dc.use_load_balance_cost);
  EXPECT_EQ(dc.max_successors, 0u);
  EXPECT_EQ(config_of("d_cols?max_successors=3").max_successors, 3u);
  // The generic `search` key defaults to the RT-SADS configuration.
  const search::SearchConfig generic = config_of("search");
  EXPECT_EQ(generic.representation, rt.representation);
  EXPECT_EQ(generic.strategy, rt.strategy);
  EXPECT_EQ(generic.task_order, rt.task_order);
  EXPECT_EQ(generic.processor_order, rt.processor_order);
  EXPECT_EQ(generic.level_processor_order, rt.level_processor_order);
  EXPECT_EQ(generic.use_load_balance_cost, rt.use_load_balance_cost);
  EXPECT_EQ(generic.max_successors, rt.max_successors);
  // EDF first-fit: the assignment-oriented depth-first search that keeps
  // one successor per level, the first feasible processor in index order.
  const search::SearchConfig ff = config_of("edf_ff");
  EXPECT_EQ(ff.representation, search::Representation::kAssignmentOriented);
  EXPECT_EQ(ff.strategy, search::SearchStrategy::kDepthFirst);
  EXPECT_EQ(ff.task_order, search::TaskOrder::kEarliestDeadline);
  EXPECT_EQ(ff.processor_order, search::ProcessorOrder::kIndexOrder);
  EXPECT_FALSE(ff.use_load_balance_cost);
  EXPECT_EQ(ff.max_successors, 1u);
  EXPECT_TRUE(ff.skip_unplaceable_tasks);
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
