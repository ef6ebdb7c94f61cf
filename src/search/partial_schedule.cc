#include "search/partial_schedule.h"

#include <algorithm>
#include <bit>

#include "common/error.h"

namespace rtds::search {

PartialSchedule::PartialSchedule(const tasks::Batch* set,
                                 const std::vector<SimDuration>& base_loads,
                                 SimTime delivery_time,
                                 const machine::Interconnect* net) {
  reset(set, base_loads, delivery_time, net);
}

void PartialSchedule::reset(const tasks::Batch* set,
                            const std::vector<SimDuration>& base_loads,
                            SimTime delivery_time,
                            const machine::Interconnect* net) {
  RTDS_REQUIRE(set != nullptr && net != nullptr,
               "PartialSchedule: null set or interconnect");
  RTDS_REQUIRE(base_loads.size() == net->num_workers(),
               "PartialSchedule: base_loads size != worker count");
  for (SimDuration d : base_loads) {
    RTDS_REQUIRE(!d.is_negative(), "PartialSchedule: negative base load");
  }
  net_ = net;
  delivery_us_ = delivery_time.us;
  ce_us_.resize(base_loads.size());
  max_ce_us_ = 0;
  for (std::size_t k = 0; k < base_loads.size(); ++k) {
    ce_us_[k] = base_loads[k].us;
    max_ce_us_ = std::max(max_ce_us_, ce_us_[k]);
  }

  cut_through_ = net_->model() == machine::RoutingModel::kCutThrough;
  comm_us_ = net_->link_cost().us;

  tasks_ = set->tasks().data();
  n_ = static_cast<std::uint32_t>(set->size());
  has_gangs_ = set->has_gangs();

  // An empty path: nothing of the previous run's assignments or gang undo
  // values may survive.
  unassigned_.assign((n_ + 63) / 64, ~std::uint64_t{0});
  if (n_ % 64 != 0) unassigned_.back() = (std::uint64_t{1} << (n_ % 64)) - 1;
  path_.clear();
  path_.reserve(n_);
  gang_undo_.clear();
}

std::uint64_t PartialSchedule::feasible_tasks_mask(ProcessorId worker,
                                                   std::size_t word) const {
  RTDS_ASSERT(tasks_mask_eligible());
  RTDS_ASSERT(word < unassigned_.size());
  // Locals, not members: with C in a register the compiler selects comm
  // without a branch, which a random affinity bit would mispredict. The
  // test runs in absolute time: max(ce_w + D, e) is the start offset plus
  // D (see evaluate_fast), so it compares with d directly.
  const std::int64_t start_lo = ce_us_[worker] + delivery_us_;
  const std::int64_t comm_us = comm_us_;
  const Task* lanes = tasks_ + (word << 6);
  std::uint64_t mask = 0;
  for (std::uint64_t bits = unassigned_[word]; bits != 0; bits &= bits - 1) {
    const int b = std::countr_zero(bits);
    const Task& task = lanes[b];
    const std::int64_t comm =
        ((task.affinity.raw() >> worker) & 1u) != 0 ? 0 : comm_us;
    const std::int64_t es = task.earliest_start.us;
    const std::int64_t start = start_lo > es ? start_lo : es;
    if (start + task.processing.us + comm <= task.deadline.us) {
      mask |= std::uint64_t{1} << b;
    }
  }
  return mask;
}

std::optional<Assignment> PartialSchedule::evaluate(
    std::uint32_t task_index, ProcessorId worker) const {
  RTDS_REQUIRE(task_index < n_, "evaluate: bad task index");
  RTDS_REQUIRE(worker < net_->num_workers(), "evaluate: bad worker id");
  RTDS_REQUIRE(!assigned(task_index), "evaluate: task already assigned");

  Assignment a;
  if (!evaluate_fast(task_index, worker, a)) return std::nullopt;
  return a;
}

std::size_t PartialSchedule::footprint_bytes() const {
  const auto vec_bytes = [](const auto& v) {
    return v.capacity() * sizeof(v[0]);
  };
  return vec_bytes(ce_us_) + vec_bytes(unassigned_) + vec_bytes(path_) +
         vec_bytes(gang_undo_);
}

}  // namespace rtds::search
