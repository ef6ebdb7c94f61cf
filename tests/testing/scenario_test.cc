// Scenario generation and replay-token serialization.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "testing/scenario.h"

namespace rtds::testing {
namespace {

TEST(ScenarioTest, TokenRoundTripsEveryGeneratedScenario) {
  for (std::uint64_t i = 0; i < 64; ++i) {
    const Scenario s = generate_scenario(0xABCDEF, i);
    const std::string token = encode_token(s);
    const auto decoded = decode_token(token);
    ASSERT_TRUE(decoded.has_value()) << token;
    EXPECT_EQ(*decoded, s) << token;
  }
}

TEST(ScenarioTest, TokenRoundTripsDefaultScenario) {
  const Scenario s;
  const auto decoded = decode_token(encode_token(s));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, s);
}

TEST(ScenarioTest, DecodeRejectsTamperedToken) {
  std::string token = encode_token(generate_scenario(1, 0));
  token.back() = token.back() == '0' ? '1' : '0';
  EXPECT_FALSE(decode_token(token).has_value());
}

TEST(ScenarioTest, DecodeRejectsWrongVersionAndGarbage) {
  std::string token = encode_token(Scenario{});
  ASSERT_EQ(token.substr(0, 5), "rtds5");
  // rtds1..rtds4 tokens predate the algo_spec string field, the
  // open-arrival fields, the task-model (gang / periodic-release) fields
  // and the big-batch capacity dial respectively: they must be rejected,
  // never silently decoded into a differently-shaped scenario.
  EXPECT_FALSE(decode_token("rtds1" + token.substr(5)).has_value());
  EXPECT_FALSE(decode_token("rtds2" + token.substr(5)).has_value());
  EXPECT_FALSE(decode_token("rtds3" + token.substr(5)).has_value());
  EXPECT_FALSE(decode_token("rtds4" + token.substr(5)).has_value());
  EXPECT_FALSE(decode_token("rtds9" + token.substr(5)).has_value());
  EXPECT_FALSE(decode_token("").has_value());
  EXPECT_FALSE(decode_token("rtds5").has_value());
  EXPECT_FALSE(decode_token("not a token at all").has_value());
  // Truncated field list.
  EXPECT_FALSE(decode_token(token.substr(0, token.size() / 2)).has_value());
}

TEST(ScenarioTest, TokenRoundTripsArbitraryAlgoSpecStrings) {
  // The string field is hex-encoded, so any spec text — including '?', '&',
  // '=' and characters the registry would reject — survives the token.
  for (const char* spec :
       {"rt_sads", "d_cols?max_successors=8", "multicrit?sort=lpt&fit=next",
        "", "weird spec with spaces", "x.c.x"}) {
    Scenario s;
    s.algo_spec = spec;
    const auto decoded = decode_token(encode_token(s));
    ASSERT_TRUE(decoded.has_value()) << spec;
    EXPECT_EQ(decoded->algo_spec, spec);
    EXPECT_EQ(*decoded, s);
  }
}

TEST(ScenarioTest, GeneratorKeepsScenariosValid) {
  for (std::uint64_t i = 0; i < 256; ++i) {
    const Scenario s = generate_scenario(0x5EED, i);
    EXPECT_GE(s.workers, 1u);
    // The big-batch capacity profile widens the machine to up to 12
    // workers; every other scenario stays in the classic 1..8 band.
    EXPECT_LE(s.workers, s.big_batch != 0 ? 12u : 8u);
    EXPECT_GE(s.num_shards, 1u);
    EXPECT_EQ(s.workers % s.num_shards, 0u)
        << "shards must divide workers (scenario " << i << ")";
    EXPECT_LE(s.processing_min_us, s.processing_max_us);
    EXPECT_LE(s.laxity_min_centi, s.laxity_max_centi);
    EXPECT_LE(s.actual_fraction_min_permille, s.actual_fraction_max_permille);
    EXPECT_GT(s.vertex_cost_us, 0);
    EXPECT_GT(s.min_quantum_us, 0);
    EXPECT_LE(s.min_quantum_us, s.max_quantum_us);
    // Task-model dial validity (rtds4): a gang must fit the machine and
    // never straddle a shard; a release train needs a positive period and a
    // jitter within it.
    EXPECT_LE(s.gang_permille, 1000u);
    if (s.gang_permille > 0) {
      EXPECT_GE(s.workers, 2u);
      EXPECT_GE(s.gang_max_workers, 2u);
      EXPECT_LE(s.gang_max_workers, s.workers);
      EXPECT_EQ(s.num_shards, 1u);
    }
    EXPECT_GE(s.num_releases, 1u);
    if (s.num_releases > 1) {
      EXPECT_GT(s.release_period_us, 0);
      EXPECT_EQ(s.open_arrival, kOpenClosed);
    }
    if (s.open_arrival == kOpenPeriodic) {
      EXPECT_GT(s.release_period_us, 0);
      EXPECT_GE(s.release_jitter_us, 0);
      EXPECT_LE(s.release_jitter_us, s.release_period_us);
    }
    if (s.big_batch != 0) {
      // Capacity scenarios: one closed single-shard burst past the old
      // 65535-task cap, DES only, schedulable by construction.
      EXPECT_GE(s.num_tasks, 65'536u);
      EXPECT_LE(s.num_tasks, 200'000u);
      EXPECT_EQ(s.open_arrival, kOpenClosed);
      EXPECT_EQ(s.num_shards, 1u);
      EXPECT_EQ(s.run_threaded, 0u);
      EXPECT_EQ(s.parity_class, 0u);
      EXPECT_EQ(s.gang_permille, 0u);
      EXPECT_EQ(s.num_releases, 1u);
      EXPECT_EQ(s.refusal_period, 0u);
      EXPECT_EQ(s.burst_size, s.num_tasks);
      EXPECT_GE(s.laxity_min_centi, 500'000u);
    }
    if (s.parity_class != 0) {
      EXPECT_EQ(s.num_releases, 1u);
      // Parity-class scenarios must sit in the regime where the threaded
      // backend provably agrees with the DES (see docs/FUZZING.md).
      EXPECT_EQ(s.refusal_period, 0u);
      EXPECT_EQ(s.max_start_offset_us, 0);
      EXPECT_EQ(s.reclaim, 0u);
      EXPECT_EQ(s.num_shards, 1u);
      EXPECT_GE(s.laxity_min_centi, 1'000'000u);
    }
  }
}

TEST(ScenarioTest, DescribeLabelsEveryArrivalAndOpenKind) {
  // to_string must name every enumerator exactly — the old nested ternaries
  // mislabeled any kind beyond the ones they spelled out, so a periodic
  // stream described itself as sporadic in fuzz failure reports.
  Scenario s;
  const auto described_arrival = [&](std::uint32_t kind) {
    Scenario c = s;
    c.arrival_kind = kind;
    return c.to_string();
  };
  EXPECT_NE(described_arrival(kArrivalBursty).find("arrival=bursty"),
            std::string::npos);
  EXPECT_NE(described_arrival(kArrivalPoisson).find("arrival=poisson"),
            std::string::npos);
  EXPECT_NE(
      described_arrival(kArrivalPeriodicBurst).find("arrival=periodic-burst"),
      std::string::npos);
  // A kind the switch does not know prints as unknown(N), never as a
  // borrowed neighbor's label.
  EXPECT_NE(described_arrival(99).find("arrival=unknown(99)"),
            std::string::npos);

  const auto described_open = [&](std::uint32_t kind) {
    Scenario c = s;
    c.open_arrival = kind;
    if (kind == kOpenPeriodic) {
      c.release_period_us = 4000;
      c.release_jitter_us = 500;
    }
    return c.to_string();
  };
  EXPECT_EQ(described_open(kOpenClosed).find("open="), std::string::npos);
  EXPECT_NE(described_open(kOpenPoisson).find("open=poisson"),
            std::string::npos);
  EXPECT_NE(described_open(kOpenOnOff).find("open=on-off"),
            std::string::npos);
  EXPECT_NE(described_open(kOpenSporadic).find("open=sporadic"),
            std::string::npos);
  const std::string periodic = described_open(kOpenPeriodic);
  EXPECT_NE(periodic.find("open=periodic"), std::string::npos);
  EXPECT_NE(periodic.find("period=4000us jitter=500us"), std::string::npos);
  EXPECT_EQ(periodic.find("gap="), std::string::npos)
      << "periodic streams draw from release_period_us, not stream gaps";
  EXPECT_NE(described_open(77).find("open=unknown(77)"), std::string::npos);

  // Task-model dials only appear when armed.
  EXPECT_EQ(s.to_string().find("gang="), std::string::npos);
  EXPECT_EQ(s.to_string().find("releases="), std::string::npos);
  Scenario gang = s;
  gang.gang_permille = 400;
  gang.gang_max_workers = 3;
  EXPECT_NE(gang.to_string().find("gang=400pm<=3w"), std::string::npos);
  Scenario releases = s;
  releases.num_releases = 3;
  releases.release_period_us = 7000;
  EXPECT_NE(releases.to_string().find("releases=3x7000us"),
            std::string::npos);
}

TEST(ScenarioTest, BigBatchProfileShapesAndRoundTrips) {
  // The profile the generator's capacity slice and `rtds_fuzz --big-batch`
  // share: deterministic in its rng, one closed wide-header burst, and the
  // resulting scenario still serializes exactly.
  Xoshiro256ss rng(0xB16B47C4ULL);
  Xoshiro256ss rng_again(0xB16B47C4ULL);
  Scenario s = generate_scenario(0xFEED, 0);
  Scenario t = generate_scenario(0xFEED, 0);
  apply_big_batch_profile(s, rng);
  apply_big_batch_profile(t, rng_again);
  EXPECT_EQ(s, t);
  EXPECT_EQ(s.big_batch, 1u);
  EXPECT_GE(s.num_tasks, 65'536u);
  EXPECT_LE(s.num_tasks, 200'000u);
  EXPECT_EQ(s.burst_size, s.num_tasks);
  EXPECT_EQ(s.open_arrival, kOpenClosed);
  EXPECT_EQ(s.num_shards, 1u);
  EXPECT_EQ(s.run_threaded, 0u);
  EXPECT_EQ(s.gang_permille, 0u);
  EXPECT_TRUE(s.algo_spec == "rt_sads" || s.algo_spec == "search")
      << s.algo_spec;
  EXPECT_NE(s.to_string().find(" big-batch"), std::string::npos);
  const auto decoded = decode_token(encode_token(s));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, s);
}

TEST(ScenarioTest, GenerationIsDeterministic) {
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(generate_scenario(42, i), generate_scenario(42, i));
  }
  // Different indices of the same sweep differ (no stuck substream).
  EXPECT_NE(generate_scenario(42, 0), generate_scenario(42, 1));
}

TEST(ScenarioTest, WorkloadIsDeterministicAndSized) {
  const Scenario s = generate_scenario(7, 3);
  const auto a = make_workload(s);
  const auto b = make_workload(s);
  EXPECT_EQ(a.size(), std::size_t{s.num_tasks} * s.num_releases);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].deadline, b[i].deadline);
    EXPECT_EQ(a[i].processing, b[i].processing);
  }
  // The workload substream is independent of the scenario substream: a
  // different seed yields a different workload.
  Scenario other = s;
  other.seed = s.seed + 1;
  const auto c = make_workload(other);
  ASSERT_EQ(c.size(), a.size());
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff = any_diff || !(a[i].processing == c[i].processing) ||
               !(a[i].arrival == c[i].arrival);
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace rtds::testing
