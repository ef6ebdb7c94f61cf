// Open-arrival sources: determinism, sortedness, burst structure, the
// sporadic rate-limit contract, and substream independence.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "tasks/arrival_source.h"

namespace rtds::tasks {
namespace {

std::vector<Task> drain(ArrivalSource& source) {
  std::vector<Task> out;
  while (source.peek().has_value()) {
    const SimTime at = *source.peek();
    Task t = source.next();
    EXPECT_EQ(t.arrival, at);  // peek's contract: next() returns that instant
    out.push_back(std::move(t));
  }
  return out;
}

StreamConfig small_config(std::uint64_t seed, std::uint32_t n = 64) {
  StreamConfig cfg;
  cfg.seed = seed;
  cfg.max_tasks = n;
  cfg.body.num_processors = 3;
  return cfg;
}

TEST(ArrivalSourceTest, PoissonStreamIsDeterministicSortedAndBounded) {
  PoissonArrivalSource a(small_config(42), usec(300));
  PoissonArrivalSource b(small_config(42), usec(300));
  const auto sa = drain(a);
  const auto sb = drain(b);
  ASSERT_EQ(sa.size(), 64u);
  ASSERT_EQ(sb.size(), 64u);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].id, sb[i].id);
    EXPECT_EQ(sa[i].arrival, sb[i].arrival);
    EXPECT_EQ(sa[i].processing, sb[i].processing);
    EXPECT_EQ(sa[i].deadline, sb[i].deadline);
    EXPECT_EQ(sa[i].id, TaskId(i));  // sequential from body.first_id
    if (i > 0) {
      EXPECT_GE(sa[i].arrival, sa[i - 1].arrival);
    }
  }
  // Exhausted for good.
  EXPECT_FALSE(a.peek().has_value());
}

TEST(ArrivalSourceTest, DifferentSeedsGiveDifferentStreams) {
  PoissonArrivalSource a(small_config(1), usec(300));
  PoissonArrivalSource b(small_config(2), usec(300));
  const auto sa = drain(a);
  const auto sb = drain(b);
  bool any_diff = false;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    any_diff = any_diff || sa[i].arrival != sb[i].arrival ||
               !(sa[i].processing == sb[i].processing);
  }
  EXPECT_TRUE(any_diff);
}

TEST(ArrivalSourceTest, BodySubstreamIsIndependentOfArrivalProcess) {
  // Same seed, different arrival process: the task bodies (drawn off the
  // dedicated "stream.body" substream) must be identical draw-for-draw.
  PoissonArrivalSource poisson(small_config(7), usec(300));
  SporadicArrivalSource sporadic(small_config(7), usec(100), usec(250));
  const auto sp = drain(poisson);
  const auto ss = drain(sporadic);
  ASSERT_EQ(sp.size(), ss.size());
  bool arrivals_differ = false;
  for (std::size_t i = 0; i < sp.size(); ++i) {
    EXPECT_EQ(sp[i].processing, ss[i].processing);
    EXPECT_EQ(sp[i].affinity, ss[i].affinity);
    arrivals_differ = arrivals_differ || sp[i].arrival != ss[i].arrival;
  }
  EXPECT_TRUE(arrivals_differ);
}

TEST(ArrivalSourceTest, OnOffEmitsBurstsSeparatedBySilences) {
  StreamConfig cfg = small_config(3, 12);
  OnOffArrivalSource source(cfg, usec(100), 4, msec(5));
  const auto stream = drain(source);
  ASSERT_EQ(stream.size(), 12u);
  // Burst k starts one off_gap after the previous arrival; within a burst
  // the spacing is exactly on_gap. Gap pattern: off, on, on, on, off, ...
  for (std::size_t i = 1; i < stream.size(); ++i) {
    const SimDuration gap = stream[i].arrival - stream[i - 1].arrival;
    if (i % 4 == 0) {
      EXPECT_EQ(gap, msec(5)) << "task " << i;
    } else {
      EXPECT_EQ(gap, usec(100)) << "task " << i;
    }
  }
  EXPECT_EQ(stream[0].arrival, cfg.start + msec(5));
}

TEST(ArrivalSourceTest, SporadicEnforcesMinimumInterArrival) {
  SporadicArrivalSource source(small_config(9, 200), usec(150), usec(400));
  const auto stream = drain(source);
  ASSERT_EQ(stream.size(), 200u);
  for (std::size_t i = 1; i < stream.size(); ++i) {
    EXPECT_GE(stream[i].arrival - stream[i - 1].arrival, usec(150));
  }
}

TEST(ArrivalSourceTest, PeriodicWithoutJitterIsAnExactReleaseTrain) {
  PeriodicArrivalSource a(small_config(5, 32), msec(2));
  PeriodicArrivalSource b(small_config(5, 32), msec(2));
  const auto sa = drain(a);
  const auto sb = drain(b);
  ASSERT_EQ(sa.size(), 32u);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].arrival, sb[i].arrival);
    // Release k lands exactly at start + (k+1) * period.
    EXPECT_EQ(sa[i].arrival, SimTime::zero() + msec(2) * std::int64_t(i + 1));
  }
}

TEST(ArrivalSourceTest, PeriodicJitterStaysWithinOnePeriodOfNominal) {
  // With jitter J ~ U[0, j], release k arrives at k*period + J_k, so gaps
  // vary but each arrival stays within [k*period, k*period + j] and the
  // stream never goes backwards (J <= period by the constructor contract).
  PeriodicArrivalSource source(small_config(6, 128), msec(2), msec(1));
  const auto stream = drain(source);
  ASSERT_EQ(stream.size(), 128u);
  bool any_jitter = false;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const SimTime nominal = SimTime::zero() + msec(2) * std::int64_t(i + 1);
    EXPECT_GE(stream[i].arrival, nominal);
    EXPECT_LE(stream[i].arrival, nominal + msec(1));
    if (i > 0) {
      EXPECT_GE(stream[i].arrival, stream[i - 1].arrival);
    }
    any_jitter = any_jitter || stream[i].arrival != nominal;
  }
  EXPECT_TRUE(any_jitter);
}

TEST(ArrivalSourceTest, PeriodicValidatesPeriodAndJitter) {
  const StreamConfig cfg = small_config(1);
  EXPECT_THROW(PeriodicArrivalSource(cfg, SimDuration::zero()),
               InvalidArgument);
  EXPECT_THROW(PeriodicArrivalSource(cfg, msec(1), usec(-1)),
               InvalidArgument);
  // Jitter beyond the period could reorder releases: rejected up front.
  EXPECT_THROW(PeriodicArrivalSource(cfg, msec(1), msec(2)),
               InvalidArgument);
}

TEST(ArrivalSourceTest, VectorSourceDrainsInOrderAndRejectsUnsorted) {
  Task early;
  early.id = 0;
  early.arrival = SimTime{100};
  Task late;
  late.id = 1;
  late.arrival = SimTime{200};
  VectorArrivalSource ok({early, late});
  const auto stream = drain(ok);
  ASSERT_EQ(stream.size(), 2u);
  EXPECT_EQ(stream[0].id, 0u);
  EXPECT_EQ(stream[1].id, 1u);
  EXPECT_THROW(VectorArrivalSource({late, early}), InvalidArgument);
}

TEST(ArrivalSourceTest, ConstructorsValidateParameters) {
  const StreamConfig cfg = small_config(1);
  EXPECT_THROW(PoissonArrivalSource(cfg, SimDuration::zero()),
               InvalidArgument);
  EXPECT_THROW(OnOffArrivalSource(cfg, usec(100), 0, msec(1)),
               InvalidArgument);
  EXPECT_THROW(OnOffArrivalSource(cfg, usec(100), 4, SimDuration::zero()),
               InvalidArgument);
  EXPECT_THROW(SporadicArrivalSource(cfg, SimDuration::zero(), usec(100)),
               InvalidArgument);
  // Invalid task-body distribution is rejected at construction, not at the
  // first draw.
  StreamConfig bad = cfg;
  bad.body.processing_min = msec(10);
  bad.body.processing_max = msec(1);
  EXPECT_THROW(PoissonArrivalSource(bad, usec(300)), InvalidArgument);
}

}  // namespace
}  // namespace rtds::tasks
