// Partitioned schedulers: the portfolio's non-search entrants.
//
// Both algorithms here follow the classic two-pass partitioned structure —
// decide task-to-worker placement ONCE per phase, then sequence each
// worker's share by EDF — instead of interleaving placement and sequencing
// the way the tree searches do:
//   * `packing` — first-fit/best-fit packing partitioned scheduling in the
//     style of Chen & Bansal (arXiv:1809.04355): tasks are packed onto
//     workers by a bin-packing fit rule over estimated queue loads.
//   * `multicrit` — the multi-criteria partitioning matrix of Lupu et al.
//     (arXiv:1004.3715): a configurable task-sort criterion (density, EDF,
//     min-slack, LPT) crossed with a fit criterion (first/best/worst/next).
//
// Both passes price a placement with PartialSchedule::evaluate — the
// predictive feasibility test itself, the same one the search algorithms
// apply. The partition pass packs the tasks onto a PartialSchedule of its
// own (evaluate probes a worker, push packs the task), and the sequencing
// pass commits every assignment through evaluate on a second one, so the
// correction theorem (scheduled tasks never miss their deadlines) holds
// for these entrants exactly as it does for RT-SADS.
// Every placement probe in either pass charges one unit of the vertex
// budget: a partitioned scheduler pays for its scheduling work on the
// simulated clock like everyone else.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/algorithm.h"

namespace rtds::sched {

/// Global order tasks are fed to the partitioner in.
enum class PartitionSort {
  kDensity,   ///< p / (d - es) descending — densest (hardest to place) first
  kDeadline,  ///< EDF — earliest deadline first
  kMinSlack,  ///< least laxity (d - es - p) first
  kLpt,       ///< longest processing time first (classic packing order)
};

/// Which worker a task is packed onto, among those passing the fit test.
enum class PartitionFit {
  kFirstFit,  ///< lowest-index feasible worker
  kBestFit,   ///< feasible worker with the earliest estimated finish
  kWorstFit,  ///< least-loaded feasible worker (spreads load)
  kNextFit,   ///< first feasible worker at or after a rolling cursor
};

struct PartitionConfig {
  PartitionSort sort{PartitionSort::kDeadline};
  PartitionFit fit{PartitionFit::kFirstFit};
};

/// Partition-then-sequence phase scheduler (see file comment). The
/// `packing` and `multicrit` registry entries are both instances of this
/// class; they differ only in which corner of the sort × fit matrix the
/// spec exposes. `name` is reported verbatim (the registry passes the
/// canonical spec).
class PartitionScheduler final : public PhaseAlgorithm {
 public:
  PartitionScheduler(std::string name, PartitionConfig config);

  [[nodiscard]] SearchResult schedule_phase(
      const std::vector<Task>& batch,
      const std::vector<SimDuration>& base_loads, SimTime delivery_time,
      const machine::Interconnect& net,
      std::uint64_t vertex_budget) const override;
  /// True for every sort and fit (tests/sched/fast_forward_test.cc).
  [[nodiscard]] bool futile_answer_persists() const override { return true; }
  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] const PartitionConfig& config() const { return config_; }

 private:
  std::string name_;
  PartitionConfig config_;
};

}  // namespace rtds::sched
