// Scalar-vs-vector parity for the search/simd.h kernels — the proof
// obligation behind taking the batched paths in search/engine.cc. Three
// layers:
//   1. raw kernel vs its *_scalar reference on randomized operands,
//      sweeping every lane-remainder shape (m and count at 1, below/at/above
//      the 4-lane AVX2 and 2-lane NEON widths, and the 63/64 extremes);
//   2. kernel verdicts vs PartialSchedule::evaluate_fast on fuzzed partial
//      schedules (the engine-facing contract, including ce_k evolution
//      across pushes and the simd min_ce against a scalar rescan);
//   3. word-boundary batch shapes off the unassigned bitset (64/128 tasks).
// On a scalar build (no -mavx2/-march=native, or RTDS_SIMD_FORCE_SCALAR)
// the dispatching kernels ARE the scalar ones and this suite pins the
// trivial identity; on a vector build it proves the lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
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
  const std::string name = simd::backend_name();
  EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "neon") << name;
}

TEST(SimdParityTest, WorkersMaskMatchesScalarOnRandomOperands) {
  Xoshiro256ss rng(0x51D0A11ULL);
  const std::uint32_t kLaneShapes[] = {1,  2,  3,  4,  5,  7,  8,
                                       9,  15, 16, 17, 31, 32, 33,
                                       47, 48, 63, 64};
  for (std::uint32_t rep = 0; rep < 200; ++rep) {
    for (const std::uint32_t m : kLaneShapes) {
      std::vector<std::int64_t> ce(m);
      for (auto& v : ce) v = rng.uniform_int(0, 2'000'000'000);
      const std::int64_t p = rng.uniform_int(1, 1'000'000'000);
      const std::int64_t es = rng.uniform_int(0, 1'500'000'000);
      // Deadline band straddles feasible/infeasible so both verdicts occur.
      const std::int64_t d = rng.uniform_int(0, 4'000'000'000LL) -
                             500'000'000;
      const std::int64_t comm = rng.uniform_int(0, 50'000'000);
      const auto aff = (rng.next() << 32) ^ rng.next();
      EXPECT_EQ(
          simd::feasible_workers_mask(ce.data(), m, p, es, d, comm, aff),
          simd::feasible_workers_mask_scalar(ce.data(), m, p, es, d, comm,
                                             aff))
          << "m=" << m << " rep=" << rep;
    }
  }
}

TEST(SimdParityTest, TasksMaskMatchesScalarOnRandomOperands) {
  Xoshiro256ss rng(0x7A5C0DEULL);
  for (std::uint32_t rep = 0; rep < 200; ++rep) {
    const auto n = static_cast<std::uint32_t>(rng.uniform_int(1, 300));
    std::vector<std::int64_t> p(n), es(n), d(n);
    std::vector<std::uint64_t> aff(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      p[i] = rng.uniform_int(1, 1'000'000'000);
      es[i] = rng.uniform_int(0, 1'500'000'000);
      d[i] = rng.uniform_int(0, 4'000'000'000LL) - 500'000'000;
      aff[i] = (rng.next() << 32) ^ rng.next();
    }
    const std::uint32_t counts[] = {1, 2, 3, 4, 5, 7, 8, 31, 32, 33, 63, 64};
    for (const std::uint32_t count : counts) {
      std::vector<std::uint32_t> ids(count);
      for (auto& t : ids) {
        t = static_cast<std::uint32_t>(rng.uniform_int(0, n - 1));
      }
      const auto worker =
          static_cast<std::uint32_t>(rng.uniform_int(0, 63));
      const std::int64_t ce_w = rng.uniform_int(0, 2'000'000'000);
      const std::int64_t comm = rng.uniform_int(0, 50'000'000);
      EXPECT_EQ(simd::feasible_tasks_mask(ids.data(), count, ce_w, worker,
                                          p.data(), es.data(), d.data(),
                                          aff.data(), comm),
                simd::feasible_tasks_mask_scalar(ids.data(), count, ce_w,
                                                 worker, p.data(), es.data(),
                                                 d.data(), aff.data(), comm))
          << "count=" << count << " rep=" << rep;
    }
  }
}

TEST(SimdParityTest, MinMaxMatchScalarOnRandomOperands) {
  Xoshiro256ss rng(0x3417B3ULL);
  for (std::uint32_t rep = 0; rep < 500; ++rep) {
    const auto m = static_cast<std::uint32_t>(rng.uniform_int(1, 64));
    std::vector<std::int64_t> v(m);
    for (auto& x : v) {
      x = rng.uniform_int(0, 4'000'000'000LL) - 2'000'000'000;
    }
    EXPECT_EQ(simd::min_i64(v.data(), m), simd::min_i64_scalar(v.data(), m));
    EXPECT_EQ(simd::max_i64(v.data(), m), simd::max_i64_scalar(v.data(), m));
  }
}

// ---------------------------------------------------------------------------
// Engine-facing contract: kernel verdicts == evaluate_fast verdicts on
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
  // m sweeps the full lane range, with the 1 and 64 extremes overweighted.
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
/// that the masks agree with evaluate_fast and min_ce with a scalar rescan.
void check_schedule_parity(const FuzzInput& s, Xoshiro256ss& rng) {
  const auto net = machine::Interconnect::cut_through(s.m, s.comm);
  PartialSchedule ps(&s.batch, s.base_loads, s.delivery, &net);
  const auto n = static_cast<std::uint32_t>(s.batch.size());

  std::vector<std::uint32_t> word_tasks;
  Assignment a;
  for (std::uint32_t step = 0; step < 64 && !ps.complete(); ++step) {
    // min_ce: simd reduction vs scalar rescan.
    SimDuration lo = ps.ce(0);
    for (std::uint32_t k = 1; k < s.m; ++k) {
      lo = min_duration(lo, ps.ce(k));
    }
    ASSERT_EQ(ps.min_ce().us, lo.us);

    // Worker-mask parity for every unassigned eligible task.
    for (std::uint32_t i = 0; i < n; ++i) {
      if (ps.assigned(i) || !ps.workers_mask_eligible(i)) continue;
      const std::uint64_t mask = ps.feasible_workers_mask(i);
      for (std::uint32_t k = 0; k < s.m; ++k) {
        ASSERT_EQ((mask >> k) & 1u, ps.evaluate_fast(i, k, a) ? 1u : 0u)
            << "task " << i << " worker " << k << " step " << step;
      }
      // Workers beyond m must be clear.
      if (s.m < 64) {
        ASSERT_EQ(mask >> s.m, 0u);
      }
    }

    // Task-mask parity per unassigned-bitset word (the engine's batch
    // shape), when the batch is eligible at all.
    if (ps.tasks_mask_eligible()) {
      const auto& words = ps.unassigned_words();
      const auto worker =
          static_cast<ProcessorId>(rng.uniform_int(0, s.m - 1));
      for (std::size_t w = 0; w < words.size(); ++w) {
        std::uint64_t bits = words[w];
        if (bits == 0) continue;
        word_tasks.clear();
        while (bits != 0) {
          const auto pos = static_cast<std::uint32_t>(
              (w << 6) + std::uint32_t(std::countr_zero(bits)));
          bits &= bits - 1;
          word_tasks.push_back(ps.task_at(pos));
        }
        const std::uint64_t mask = ps.feasible_tasks_mask(
            worker, word_tasks.data(),
            static_cast<std::uint32_t>(word_tasks.size()));
        for (std::size_t j = 0; j < word_tasks.size(); ++j) {
          ASSERT_EQ((mask >> j) & 1u,
                    ps.evaluate_fast(word_tasks[j], worker, a) ? 1u : 0u)
              << "word " << w << " lane " << j << " step " << step;
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
