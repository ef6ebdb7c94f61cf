// The real-time task model of Sec. 2.
//
// A task T_i is aperiodic, non-preemptable and independent, characterized by
// an arrival time a_i, a processing time p_i, a deadline d_i, and a
// communication cost c_ij toward each processor P_j. In the paper's
// cut-through (wormhole) cost model c_ij is 0 when T_i has affinity with P_j
// (its referenced data lives in P_j's local memory) and a constant C
// otherwise; affinity is therefore represented as a per-task processor set,
// and machine::Interconnect prices c_ij from it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/time.h"

namespace rtds::tasks {

using TaskId = std::uint32_t;
using ProcessorId = std::uint32_t;

/// Set of worker processors a task has affinity with. Bitmask over worker
/// ids; supports up to 64 workers, far above the paper's 2..10 range.
class AffinitySet {
 public:
  static constexpr std::uint32_t kMaxProcessors = 64;

  AffinitySet() = default;

  static AffinitySet all(std::uint32_t num_processors) {
    check_count(num_processors);
    AffinitySet s;
    s.bits_ = (num_processors == kMaxProcessors)
                  ? ~std::uint64_t{0}
                  : ((std::uint64_t{1} << num_processors) - 1);
    return s;
  }

  static AffinitySet none() { return AffinitySet{}; }

  static AffinitySet single(ProcessorId p) {
    AffinitySet s;
    s.add(p);
    return s;
  }

  void add(ProcessorId p) {
    check_id(p);
    bits_ |= (std::uint64_t{1} << p);
  }
  void remove(ProcessorId p) {
    check_id(p);
    bits_ &= ~(std::uint64_t{1} << p);
  }
  [[nodiscard]] bool contains(ProcessorId p) const {
    check_id(p);
    return (bits_ >> p) & 1u;
  }
  [[nodiscard]] bool empty() const { return bits_ == 0; }
  [[nodiscard]] std::uint32_t count() const {
    return static_cast<std::uint32_t>(__builtin_popcountll(bits_));
  }
  [[nodiscard]] std::uint64_t raw() const { return bits_; }

  /// Worker ids in ascending order.
  [[nodiscard]] std::vector<ProcessorId> to_vector() const;

  bool operator==(const AffinitySet&) const = default;

 private:
  static void check_id(ProcessorId p) {
    RTDS_REQUIRE(p < kMaxProcessors, "AffinitySet: processor id out of range");
  }
  static void check_count(std::uint32_t n) {
    RTDS_REQUIRE(n <= kMaxProcessors, "AffinitySet: too many processors");
  }
  std::uint64_t bits_{0};
};

/// One real-time task (Sec. 2). Value type; immutable after generation.
struct Task {
  TaskId id{0};
  SimTime arrival{SimTime::zero()};       ///< a_i
  SimDuration processing{SimDuration::zero()};  ///< p_i (worst case)
  SimTime deadline{SimTime::zero()};      ///< d_i (absolute)
  AffinitySet affinity;                   ///< processors with c_ij == 0

  /// Earliest permissible execution start (footnote 1 of the paper: the
  /// uniprocessor ancestor of this model carries both deadline and
  /// start-time constraints, which is what makes sequencing NP-complete).
  /// Zero means "no constraint beyond arrival". A worker may not begin the
  /// task before this instant; the search's feasibility test accounts for
  /// the induced idling.
  SimTime earliest_start{SimTime::zero()};

  /// Actual execution demand, when known to be below the worst case the
  /// scheduler plans with. Zero means "equal to `processing`". Used by the
  /// resource-reclaiming extension (Shen/Ramamritham/Stankovic, the
  /// paper's ref [3]): schedulers always plan with `processing`; a
  /// reclaiming cluster executes `actual_processing` and starts the next
  /// queued task early. Must never exceed `processing`.
  SimDuration actual_processing{SimDuration::zero()};

  /// Gang width (job parallelism, arXiv:0805.3237): the task occupies this
  /// many workers simultaneously for its whole execution. The scheduler
  /// places the *lead* worker w and the job then claims the contiguous
  /// block [w, w+workers_required); communication cost is priced against
  /// the lead's affinity only. 1 (the default) is the paper's sequential
  /// task model.
  std::uint32_t workers_required{1};

  /// The demand a worker actually executes.
  [[nodiscard]] SimDuration effective_processing() const {
    return actual_processing.is_zero() ? processing : actual_processing;
  }

  /// Slack at time t: the maximum delay before execution must start for
  /// the deadline to hold (footnote in Sec. 4.2): d_i - t - p_i, where t
  /// is pushed forward to any start-time constraint. Can be negative once
  /// the deadline is no longer reachable.
  [[nodiscard]] SimDuration slack_at(SimTime t) const {
    const SimTime effective = earliest_start > t ? earliest_start : t;
    return (deadline - effective) - processing;
  }

  /// The paper culls tasks whose deadline can no longer be met even with
  /// immediate execution: p_i + t_c > d_i (with t_c pushed forward to the
  /// start-time constraint).
  [[nodiscard]] bool deadline_unreachable(SimTime t) const {
    const SimTime effective = earliest_start > t ? earliest_start : t;
    return effective + processing > deadline;
  }

  [[nodiscard]] std::string to_string() const;
};

}  // namespace rtds::tasks
