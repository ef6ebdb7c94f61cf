#include "search/partial_schedule.h"

#include <algorithm>
#include <bit>

#include "common/error.h"

namespace rtds::search {

PartialSchedule::PartialSchedule(const std::vector<Task>* batch,
                                 const std::vector<SimDuration>& base_loads,
                                 SimTime delivery_time,
                                 const machine::Interconnect* net) {
  reset(batch, base_loads, delivery_time, net);
}

void PartialSchedule::reset(const std::vector<Task>* batch,
                            const std::vector<SimDuration>& base_loads,
                            SimTime delivery_time,
                            const machine::Interconnect* net) {
  RTDS_REQUIRE(batch != nullptr && net != nullptr,
               "PartialSchedule: null batch or interconnect");
  RTDS_REQUIRE(base_loads.size() == net->num_workers(),
               "PartialSchedule: base_loads size != worker count");
  for (SimDuration d : base_loads) {
    RTDS_REQUIRE(!d.is_negative(), "PartialSchedule: negative base load");
  }
  batch_ = batch;
  net_ = net;
  delivery_time_ = delivery_time;
  ce_us_.resize(base_loads.size());
  max_ce_us_ = 0;
  for (std::size_t k = 0; k < base_loads.size(); ++k) {
    ce_us_[k] = base_loads[k].us;
    max_ce_us_ = std::max(max_ce_us_, ce_us_[k]);
  }

  cut_through_ = net_->model() == machine::RoutingModel::kCutThrough;
  comm_us_ = net_->link_cost().us;

  const std::size_t n = batch_->size();
  p_us_.resize(n);
  es_us_.resize(n);
  d_us_.resize(n);
  aff_bits_.resize(n);
  width_.resize(n);
  has_gangs_ = false;
  for (std::size_t i = 0; i < n; ++i) {
    const Task& t = (*batch_)[i];
    p_us_[i] = t.processing.us;
    es_us_[i] = es_off_us(t);
    d_us_[i] = (t.deadline - delivery_time_).us;
    aff_bits_[i] = t.affinity.raw();
    RTDS_REQUIRE(t.workers_required >= 1,
                 "PartialSchedule: workers_required must be >= 1");
    RTDS_REQUIRE(!t.affinity.empty(),
                 "PartialSchedule: task has no data holder");
    width_[i] = t.workers_required;
    has_gangs_ = has_gangs_ || t.workers_required > 1;
  }

  // Back to the identity order and an empty path: nothing of the previous
  // batch's order, assignments or gang undo values may survive.
  order_ = nullptr;
  pos_of_task_.clear();
  unassigned_.resize((n + 63) / 64);
  reset_unassigned_bits();
  path_.clear();
  path_.reserve(n);
  gang_undo_.clear();
}

void PartialSchedule::reset_unassigned_bits() {
  const std::size_t n = batch_->size();
  std::fill(unassigned_.begin(), unassigned_.end(), ~std::uint64_t{0});
  if (n % 64 != 0 && !unassigned_.empty()) {
    unassigned_.back() = (std::uint64_t{1} << (n % 64)) - 1;
  }
}

void PartialSchedule::set_consideration_order(const std::uint32_t* order) {
  RTDS_REQUIRE(path_.empty(),
               "set_consideration_order: schedule already has assignments");
  order_ = order;
  pos_of_task_.clear();
  if (order != nullptr) {
    const auto n = static_cast<std::uint32_t>(batch_->size());
    pos_of_task_.assign(n, n);  // sentinel: not yet seen
    for (std::uint32_t pos = 0; pos < n; ++pos) {
      const std::uint32_t task = order[pos];
      RTDS_REQUIRE(task < n && pos_of_task_[task] == n,
                   "set_consideration_order: not a permutation of the batch");
      pos_of_task_[task] = pos;
    }
  }
  reset_unassigned_bits();
}

std::uint32_t PartialSchedule::first_unassigned_at_or_after(
    std::uint32_t pos) const {
  const auto n = static_cast<std::uint32_t>(batch_->size());
  if (pos >= n) return n;
  std::size_t word = pos >> 6;
  // Mask off positions below `pos` in the first word.
  std::uint64_t bits = unassigned_[word] & (~std::uint64_t{0} << (pos & 63));
  while (bits == 0) {
    if (++word == unassigned_.size()) return n;
    bits = unassigned_[word];
  }
  return static_cast<std::uint32_t>((word << 6) +
                                    std::uint32_t(std::countr_zero(bits)));
}

std::uint64_t PartialSchedule::feasible_tasks_mask(
    ProcessorId worker, const std::uint32_t* tasks, std::uint32_t count) const {
  RTDS_ASSERT(tasks_mask_eligible());
  // Locals, not members: with C in a register the compiler selects comm
  // without a branch, which a random affinity bit would mispredict.
  const std::int64_t ce_w = ce_us_[worker];
  const std::int64_t comm_us = comm_us_;
  std::uint64_t mask = 0;
  for (std::uint32_t j = 0; j < count; ++j) {
    const std::uint32_t t = tasks[j];
    const std::int64_t comm =
        ((aff_bits_[t] >> worker) & 1u) != 0 ? 0 : comm_us;
    const std::int64_t start = ce_w > es_us_[t] ? ce_w : es_us_[t];
    if (start + p_us_[t] + comm <= d_us_[t]) mask |= std::uint64_t{1} << j;
  }
  return mask;
}

std::optional<Assignment> PartialSchedule::evaluate(
    std::uint32_t task_index, ProcessorId worker) const {
  RTDS_REQUIRE(task_index < batch_->size(), "evaluate: bad task index");
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
  const std::uint32_t pos = pos_of(a.task_index);
  unassigned_[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
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
  const std::uint32_t pos = pos_of(a.task_index);
  unassigned_[pos >> 6] |= std::uint64_t{1} << (pos & 63);
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
  return vec_bytes(ce_us_) + vec_bytes(p_us_) +
         vec_bytes(es_us_) + vec_bytes(d_us_) + vec_bytes(aff_bits_) +
         vec_bytes(width_) + vec_bytes(unassigned_) +
         vec_bytes(pos_of_task_) + vec_bytes(path_) + vec_bytes(gang_undo_);
}

}  // namespace rtds::search
