#include "sched/portfolio.h"

#include <algorithm>
#include <cstdint>
#include <optional>

#include "common/error.h"
#include "search/partial_schedule.h"

namespace rtds::sched {

using search::Assignment;
using search::PartialSchedule;

namespace {

/// Density compare without division: p_a/span_a > p_b/span_b as a
/// cross-multiplication in 128-bit (microsecond magnitudes squared can
/// exceed 63 bits on long-horizon workloads).
bool denser(std::int64_t p_a, std::int64_t span_a, std::int64_t p_b,
            std::int64_t span_b) {
  return static_cast<__int128>(p_a) * span_b >
         static_cast<__int128>(p_b) * span_a;
}

}  // namespace

PartitionScheduler::PartitionScheduler(std::string name,
                                       PartitionConfig config)
    : name_(std::move(name)), config_(config) {}

// An empty answer that kept budget placed nothing in pass 1: a task pass 1
// placed reaches pass 2, whose first commit on that task's worker is
// evaluated at the root, where the queue is no longer than pass 1 saw, so
// it is feasible too. So every (task, worker) probe failed at the root and
// was charged once. At a root with no A_k earlier they fail again (Fig. 4
// is monotone in every A_k) and are charged alike, whatever order the
// delivery-relative sort keys put them in: futile_answer_persists() holds.
SearchResult PartitionScheduler::schedule_phase(
    const std::vector<Task>& batch,
    const std::vector<SimDuration>& base_loads, SimTime delivery_time,
    const machine::Interconnect& net, std::uint64_t vertex_budget) const {
  SearchResult result;
  if (batch.empty() || vertex_budget == 0) return result;

  const std::uint32_t m = net.num_workers();
  const std::uint32_t n = static_cast<std::uint32_t>(batch.size());
  const tasks::Batch set(batch);
  PartialSchedule ps(&set, base_loads, delivery_time, &net);

  std::uint64_t budget_left = vertex_budget;
  auto& stats = result.stats;
  const auto charge = [&]() -> bool {
    if (budget_left == 0) {
      stats.budget_exhausted = true;
      return false;
    }
    --budget_left;
    ++stats.vertices_generated;
    return true;
  };

  // ---- Pass 1: pack tasks onto workers over ESTIMATED queue loads. ----
  // The estimate is a second PartialSchedule the tasks are pushed onto in
  // partition order: evaluate(i, k) is the Fig. 4 test itself (a gang's
  // lead k claims the block [k, k+workers_required)), so a pass-1
  // placement is exactly the assignment the sequencing pass would commit
  // if the worker's queue were consumed in partition order. EDF
  // re-sequencing in pass 2 can only shuffle a worker's internal order, so
  // the final commit re-checks feasibility.
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  const auto span_of = [&](std::uint32_t i) -> std::int64_t {
    const auto& tc = ps.constants(i);
    const std::int64_t span = tc.d_off_us - tc.es_off_us;
    return span > 1 ? span : 1;
  };
  switch (config_.sort) {
    case PartitionSort::kDensity:
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  const auto& ta = ps.constants(a);
                  const auto& tb = ps.constants(b);
                  if (denser(ta.processing_us, span_of(a), tb.processing_us,
                             span_of(b)))
                    return true;
                  if (denser(tb.processing_us, span_of(b), ta.processing_us,
                             span_of(a)))
                    return false;
                  return a < b;
                });
      break;
    case PartitionSort::kDeadline:
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  const std::int64_t da = ps.constants(a).d_off_us;
                  const std::int64_t db = ps.constants(b).d_off_us;
                  return da != db ? da < db : a < b;
                });
      break;
    case PartitionSort::kMinSlack:
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  const auto& ta = ps.constants(a);
                  const auto& tb = ps.constants(b);
                  const std::int64_t sa =
                      ta.d_off_us - ta.es_off_us - ta.processing_us;
                  const std::int64_t sb =
                      tb.d_off_us - tb.es_off_us - tb.processing_us;
                  return sa != sb ? sa < sb : a < b;
                });
      break;
    case PartitionSort::kLpt:
      std::sort(order.begin(), order.end(),
                [&](std::uint32_t a, std::uint32_t b) {
                  const std::int64_t pa = ps.constants(a).processing_us;
                  const std::int64_t pb = ps.constants(b).processing_us;
                  return pa != pb ? pa > pb : a < b;
                });
      break;
  }

  constexpr std::uint32_t kUnassigned = 0xFFFFFFFFu;
  std::vector<std::uint32_t> home(n, kUnassigned);
  PartialSchedule packed(&set, base_loads, delivery_time, &net);

  // Every probe is a candidate evaluation and charges one budget unit
  // (Sec. 4.1). First fit and next fit keep the first feasible worker of
  // their scan; best fit keeps the earliest end and worst fit the least
  // loaded lead, both keeping ties on the lower worker.
  const bool take_first = config_.fit == PartitionFit::kFirstFit ||
                          config_.fit == PartitionFit::kNextFit;
  std::uint32_t cursor = 0;  // kNextFit's rolling worker cursor
  for (std::uint32_t i : order) {
    if (stats.budget_exhausted) break;
    std::optional<Assignment> chosen;
    for (std::uint32_t step = 0; step < m && charge(); ++step) {
      const std::uint32_t k =
          config_.fit == PartitionFit::kNextFit ? (cursor + step) % m : step;
      const std::optional<Assignment> a = packed.evaluate(i, k);
      if (!a) continue;
      if (!chosen ||
          (config_.fit == PartitionFit::kBestFit &&
           a->end_offset < chosen->end_offset) ||
          (config_.fit == PartitionFit::kWorstFit &&
           packed.ce(k) < packed.ce(chosen->worker))) {
        chosen = a;
      }
      if (take_first) break;
    }
    if (chosen && !stats.budget_exhausted) {
      cursor = (chosen->worker + 1) % m;
      home[i] = chosen->worker;
      packed.push(*chosen);
    }
  }

  // ---- Pass 2: sequence each worker's share by EDF and commit through ----
  // the predictive feasibility test. A task whose pass-1 estimate no
  // longer holds after EDF re-ordering is skipped, never scheduled late —
  // this is what keeps the correction theorem intact.
  std::vector<std::uint32_t> share(order.begin(), order.end());
  std::sort(share.begin(), share.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (home[a] != home[b]) return home[a] < home[b];
              const std::int64_t da = ps.constants(a).d_off_us;
              const std::int64_t db = ps.constants(b).d_off_us;
              return da != db ? da < db : a < b;
            });
  for (std::uint32_t i : share) {
    if (home[i] == kUnassigned) continue;  // sorted last; rest are too
    if (!charge()) break;
    if (const auto a = ps.evaluate(i, home[i])) {
      ps.push(*a);
      ++stats.expansions;
    }
  }

  stats.max_depth = ps.depth();
  stats.reached_leaf = ps.complete();
  result.schedule = ps.path();
  return result;
}

}  // namespace rtds::sched
