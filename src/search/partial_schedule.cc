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
  set_ = set;
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

  n_ = static_cast<std::uint32_t>(set->size());
  d_ = set->deadline_us().data();
  p_ = set->processing_us().data();
  es_ = set->earliest_start_us().data();
  aff_ = set->affinity_bits().data();
  width_ = set->widths().data();
  has_gangs_ = set->has_gangs();

  // An empty path: nothing of the previous run's assignments or gang undo
  // values may survive.
  unassigned_.assign((n_ + 63) / 64, ~std::uint64_t{0});
  if (n_ % 64 != 0) unassigned_.back() = (std::uint64_t{1} << (n_ % 64)) - 1;
  path_.clear();
  path_.reserve(n_);
  gang_undo_.clear();
}

std::uint32_t PartialSchedule::first_unassigned_at_or_after(
    std::uint32_t pos) const {
  if (pos >= n_) return n_;
  std::size_t word = pos >> 6;
  // Mask off positions below `pos` in the first word.
  std::uint64_t bits = unassigned_[word] & (~std::uint64_t{0} << (pos & 63));
  while (bits == 0) {
    if (++word == unassigned_.size()) return n_;
    bits = unassigned_[word];
  }
  return static_cast<std::uint32_t>((word << 6) +
                                    std::uint32_t(std::countr_zero(bits)));
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
  const std::int64_t* d = d_ + (word << 6);
  const std::int64_t* p = p_ + (word << 6);
  const std::int64_t* es = es_ + (word << 6);
  const std::uint64_t* aff = aff_ + (word << 6);
  std::uint64_t mask = 0;
  for (std::uint64_t bits = unassigned_[word]; bits != 0; bits &= bits - 1) {
    const int b = std::countr_zero(bits);
    const std::int64_t comm = ((aff[b] >> worker) & 1u) != 0 ? 0 : comm_us;
    const std::int64_t start = start_lo > es[b] ? start_lo : es[b];
    if (start + p[b] + comm <= d[b]) mask |= std::uint64_t{1} << b;
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

void PartialSchedule::push(const Assignment& a) {
  RTDS_ASSERT(!assigned(a.task_index));
  RTDS_ASSERT(std::size_t{a.worker} + width_[a.task_index] <= ce_us_.size());
  // Integrity: the assignment must have been evaluated at this exact state.
  RTDS_ASSERT(ce_us_[a.worker] == a.prev_ce.us);
  RTDS_ASSERT(max_ce_us_ == a.prev_max_ce.us);
  unassigned_[a.task_index >> 6] &= ~(std::uint64_t{1} << (a.task_index & 63));
  // A gang charges its whole worker block to the same end offset; the
  // siblings' pre-push offsets go on the side undo stack (the lead's is
  // Assignment::prev_ce).
  const std::uint32_t k = width_[a.task_index];
  for (std::uint32_t j = 1; j < k; ++j) {
    gang_undo_.push_back(SimDuration{ce_us_[a.worker + j]});
    ce_us_[a.worker + j] = a.end_offset.us;
  }
  ce_us_[a.worker] = a.end_offset.us;
  max_ce_us_ = std::max(max_ce_us_, a.end_offset.us);
  path_.push_back(a);
}

void PartialSchedule::pop() {
  RTDS_REQUIRE(!path_.empty(), "pop: empty path");
  const Assignment& a = path_.back();
  unassigned_[a.task_index >> 6] |= std::uint64_t{1} << (a.task_index & 63);
  const std::uint32_t k = width_[a.task_index];
  for (std::uint32_t j = k; j-- > 1;) {
    ce_us_[a.worker + j] = gang_undo_.back().us;
    gang_undo_.pop_back();
  }
  ce_us_[a.worker] = a.prev_ce.us;
  // LIFO discipline means the pre-push CE recorded on the assignment is
  // exactly the post-pop CE — no rescan needed.
  max_ce_us_ = a.prev_max_ce.us;
  path_.pop_back();
}

std::size_t PartialSchedule::footprint_bytes() const {
  const auto vec_bytes = [](const auto& v) {
    return v.capacity() * sizeof(v[0]);
  };
  return vec_bytes(ce_us_) + vec_bytes(unassigned_) + vec_bytes(path_) +
         vec_bytes(gang_undo_);
}

}  // namespace rtds::search
