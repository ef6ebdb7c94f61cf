// Parity of the search's batched Fig. 4 kernel with the scalar test — the
// proof obligation behind taking the task-word path in search/engine.cc:
//   1. PartialSchedule::feasible_tasks_mask verdicts vs evaluate_fast on
//      fuzzed partial schedules, per unassigned-bitset word (the engine's
//      batch shape), across pushes and pops, with min_ce against a rescan;
//   2. word-boundary batch shapes off the unassigned bitset (63..129 tasks).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "machine/interconnect.h"
#include "search/partial_schedule.h"
#include "search/simd.h"

namespace rtds::search {
namespace {

using tasks::AffinitySet;
using tasks::ProcessorId;

TEST(SimdParityTest, BackendNameIsKnown) {
  EXPECT_STREQ(simd::backend_name(), "scalar");
}

// ---------------------------------------------------------------------------
// Engine-facing contract: task-word verdicts == evaluate_fast verdicts on
// fuzzed partial schedules, across pushes (ce_k evolution included).
// ---------------------------------------------------------------------------

struct FuzzInput {
  std::vector<Task> batch;
  std::vector<SimDuration> base_loads;
  SimTime delivery{SimTime::zero()};
  std::uint32_t m{1};
  SimDuration comm{SimDuration::zero()};
};

FuzzInput make_input(Xoshiro256ss& rng, bool allow_gangs) {
  FuzzInput s;
  // m sweeps 1..64, with the 1 and 64 extremes overweighted.
  switch (rng.uniform_int(0, 3)) {
    case 0:
      s.m = 1;
      break;
    case 1:
      s.m = 64;
      break;
    default:
      s.m = static_cast<std::uint32_t>(rng.uniform_int(2, 63));
      break;
  }
  s.comm = usec(rng.uniform_int(0, 8000));
  s.delivery = SimTime::zero() + usec(rng.uniform_int(0, 20000));
  const auto n = static_cast<std::uint32_t>(rng.uniform_int(1, 200));
  s.batch.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Task& t = s.batch[i];
    t.id = i;
    t.processing = usec(rng.uniform_int(100, 10000));
    t.deadline = SimTime::zero() + usec(rng.uniform_int(500, 90000));
    if (rng.bernoulli(0.3)) {
      t.earliest_start = SimTime::zero() + usec(rng.uniform_int(0, 40000));
    }
    if (rng.bernoulli(0.25)) {
      t.affinity = AffinitySet::all(s.m);
    } else {
      const auto holders = static_cast<std::uint32_t>(rng.uniform_int(1, 3));
      for (std::uint32_t h = 0; h < holders; ++h) {
        t.affinity.add(
            static_cast<ProcessorId>(rng.uniform_int(0, s.m - 1)));
      }
    }
    if (allow_gangs && s.m >= 2 && rng.bernoulli(0.2)) {
      t.workers_required =
          static_cast<std::uint32_t>(rng.uniform_int(2, s.m));
    }
  }
  s.base_loads.resize(s.m);
  for (auto& load : s.base_loads) {
    load = rng.bernoulli(0.5) ? SimDuration::zero()
                              : usec(rng.uniform_int(0, 15000));
  }
  return s;
}

/// Walks random feasible pushes through a schedule, checking at every state
/// that the task-word mask agrees with evaluate_fast and min_ce with a
/// rescan of the queue offsets.
void check_schedule_parity(const FuzzInput& s, Xoshiro256ss& rng) {
  const auto net = machine::Interconnect::cut_through(s.m, s.comm);
  const tasks::Batch set(s.batch);
  PartialSchedule ps(&set, s.base_loads, s.delivery, &net);
  const auto n = static_cast<std::uint32_t>(s.batch.size());

  Assignment a;
  for (std::uint32_t step = 0; step < 64 && !ps.complete(); ++step) {
    SimDuration lo = ps.ce(0);
    for (std::uint32_t k = 1; k < s.m; ++k) {
      lo = min_duration(lo, ps.ce(k));
    }
    ASSERT_EQ(ps.min_ce().us, lo.us);

    // Task-mask parity per unassigned-bitset word (the engine's batch
    // shape), when the batch is eligible at all.
    if (ps.tasks_mask_eligible()) {
      const auto& words = ps.unassigned_words();
      const auto worker =
          static_cast<ProcessorId>(rng.uniform_int(0, s.m - 1));
      for (std::size_t w = 0; w < words.size(); ++w) {
        const std::uint64_t mask = ps.feasible_tasks_mask(worker, w);
        for (std::uint32_t b = 0; b < 64 && (w << 6) + b < n; ++b) {
          const auto i = static_cast<std::uint32_t>((w << 6) + b);
          const bool feasible =
              !ps.assigned(i) && ps.evaluate_fast(i, worker, a);
          ASSERT_EQ((mask >> b) & 1u, feasible ? 1u : 0u)
              << "word " << w << " lane " << b << " step " << step;
        }
        // Lanes past the set's end are never set.
        if ((w << 6) + 64 > n) {
          ASSERT_EQ(mask >> (n - (w << 6)), 0u) << "word " << w;
        }
      }
    }

    // Advance: push a random feasible assignment (ce_k evolution is what
    // the next iteration's parity checks run against); stop at dead ends.
    bool pushed = false;
    const auto start_task =
        static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
    for (std::uint32_t off = 0; off < n && !pushed; ++off) {
      const std::uint32_t i = (start_task + off) % n;
      if (ps.assigned(i)) continue;
      const auto start_worker =
          static_cast<std::uint32_t>(rng.uniform_int(0, s.m - 1));
      for (std::uint32_t wk = 0; wk < s.m; ++wk) {
        if (ps.evaluate_fast(i, (start_worker + wk) % s.m, a)) {
          ps.push(a);
          ASSERT_EQ(ps.ce(a.worker).us, a.end_offset.us);
          pushed = true;
          break;
        }
      }
    }
    if (!pushed) break;
    // Occasionally backtrack so post-pop states get checked too.
    if (ps.depth() > 0 && rng.bernoulli(0.2)) ps.pop();
  }
}

TEST(SimdParityTest, MasksMatchEvaluateFastOverFuzzSchedules) {
  Xoshiro256ss rng(0xFA57F00DULL);
  for (std::uint32_t sc = 0; sc < 120; ++sc) {
    const FuzzInput s = make_input(rng, /*allow_gangs=*/sc % 3 == 0);
    check_schedule_parity(s, rng);
  }
}

TEST(SimdParityTest, WordBoundaryBatchShapes) {
  // n exactly at bitset word boundaries: the final word is full (64, 128)
  // or minimal (65, 129) — the mask path must agree in both shapes.
  Xoshiro256ss rng(0xB17B0A4DULL);
  for (const std::uint32_t n : {63u, 64u, 65u, 127u, 128u, 129u}) {
    for (std::uint32_t rep = 0; rep < 8; ++rep) {
      FuzzInput s = make_input(rng, /*allow_gangs=*/false);
      s.batch.resize(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        Task& t = s.batch[i];
        t.id = i;
        if (t.processing == SimDuration::zero()) {
          t.processing = usec(rng.uniform_int(100, 10000));
          t.deadline = SimTime::zero() + usec(rng.uniform_int(500, 90000));
          t.affinity = AffinitySet::all(s.m);
        }
        t.workers_required = 1;
      }
      check_schedule_parity(s, rng);
    }
  }
}

}  // namespace
}  // namespace rtds::search
