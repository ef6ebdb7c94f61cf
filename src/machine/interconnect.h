// Interconnect cost model (Sec. 2).
//
// The paper assumes cut-through (wormhole) routing, as on the Intel
// Paragon: inter-processor communication cost is independent of distance,
// so c_ij is either 0 (task has affinity with the processor) or a constant
// C. We implement that model, plus a store-and-forward 2D-mesh alternative
// (cost proportional to Manhattan hops to the nearest data holder) used by
// an ablation bench to show how sensitive the results are to the
// constant-cost assumption.
#pragma once

#include <cstdint>

#include "common/time.h"
#include "tasks/task.h"

namespace rtds::machine {

using tasks::AffinitySet;
using tasks::ProcessorId;

enum class RoutingModel {
  kCutThrough,     ///< paper model: constant C for any non-affine placement
  kStoreAndForward ///< ablation: C_hop * Manhattan hops to nearest holder
};

/// Computes communication costs c_ij between a task's data holders
/// (its affinity set) and a candidate execution processor.
class Interconnect {
 public:
  /// Cut-through interconnect with constant cost `constant_cost`.
  static Interconnect cut_through(std::uint32_t num_workers,
                                  SimDuration constant_cost);

  /// Store-and-forward 2D mesh: workers are laid out row-major on a
  /// near-square grid; cost is `per_hop_cost` times the Manhattan distance
  /// to the nearest processor holding the task's data.
  static Interconnect mesh(std::uint32_t num_workers,
                           SimDuration per_hop_cost);

  [[nodiscard]] std::uint32_t num_workers() const { return num_workers_; }
  [[nodiscard]] RoutingModel model() const { return model_; }

  /// The model's cost constant: C under cut-through, the per-hop cost under
  /// store-and-forward. Exposed so the search can inline the cut-through
  /// pricing (0 or C) without a call per evaluation.
  [[nodiscard]] SimDuration link_cost() const { return cost_; }

  /// Communication cost c_ij of running a task whose data holders are
  /// `affinity` on worker `target`. Zero when target is a holder.
  /// An empty affinity set is a caller bug (a task must have data
  /// somewhere).
  [[nodiscard]] SimDuration comm_cost(const AffinitySet& affinity,
                                      ProcessorId target) const;

 private:
  Interconnect(RoutingModel model, std::uint32_t num_workers,
               SimDuration cost);

  [[nodiscard]] std::uint32_t manhattan(ProcessorId a, ProcessorId b) const;

  RoutingModel model_;
  std::uint32_t num_workers_;
  SimDuration cost_;        ///< C (cut-through) or per-hop cost (mesh)
  std::uint32_t mesh_cols_{1};
};

}  // namespace rtds::machine
