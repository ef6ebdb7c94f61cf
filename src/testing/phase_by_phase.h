// Decorators that check the pipeline's fast-forward of futile runs.
//
// PhaseByPhaseBackend forwards every call to its inner backend but does not
// declare analytic loads, so a pipeline run through it takes the
// phase-by-phase loop: every phase calls the source, the backend and the
// algorithm. It is the reference a fast-forwarded run must equal field for
// field (the fast-forward-parity oracle, testing/oracles.h).
//
// VectorEntryAlgorithm forwards only schedule_phase and name(): a pipeline
// run through it keeps its pending set in arrival order and hands the
// algorithm a vector of its tasks every phase, phase by phase. The
// reference run drives the algorithm through it, so the parity oracle
// also compares a search that reads the pending set in place with the
// same search through its vector adapter.
//
// CallCountingAlgorithm forwards every call to its inner algorithm, the
// pending set's order, its in-place entry and futile_answer_persists()
// included, and counts the calls of both entries: a run's phases minus its
// calls are the phases the pipeline fast-forwarded.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/algorithm.h"
#include "sched/backend.h"

namespace rtds::testing {

class PhaseByPhaseBackend final : public sched::ExecutionBackend {
 public:
  /// The inner backend must outlive this.
  explicit PhaseByPhaseBackend(sched::ExecutionBackend& inner)
      : inner_(inner) {}

  [[nodiscard]] std::uint32_t num_workers() const override {
    return inner_.num_workers();
  }
  [[nodiscard]] const machine::Interconnect& interconnect() const override {
    return inner_.interconnect();
  }
  [[nodiscard]] SimTime now() const override { return inner_.now(); }
  [[nodiscard]] SimDuration load(std::uint32_t worker,
                                 SimTime t) const override {
    return inner_.load(worker, t);
  }
  void wait_until(SimTime t) override { inner_.wait_until(t); }
  void advance(SimDuration host_busy) override { inner_.advance(host_busy); }
  sched::DeliveryResult deliver(
      const std::vector<machine::ScheduledAssignment>& schedule) override {
    return inner_.deliver(schedule);
  }
  sched::BackendStats drain() override { return inner_.drain(); }
  void bind_ledger(sched::TaskLedger* ledger) override {
    inner_.bind_ledger(ledger);
  }

 private:
  sched::ExecutionBackend& inner_;
};

class VectorEntryAlgorithm final : public sched::PhaseAlgorithm {
 public:
  /// The inner algorithm must outlive this.
  explicit VectorEntryAlgorithm(const sched::PhaseAlgorithm& inner)
      : inner_(inner) {}

  [[nodiscard]] sched::SearchResult schedule_phase(
      const std::vector<tasks::Task>& batch,
      const std::vector<SimDuration>& base_loads, SimTime delivery_time,
      const machine::Interconnect& net,
      std::uint64_t vertex_budget) const override {
    return inner_.schedule_phase(batch, base_loads, delivery_time, net,
                                 vertex_budget);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  const sched::PhaseAlgorithm& inner_;
};

class CallCountingAlgorithm final : public sched::PhaseAlgorithm {
 public:
  /// The inner algorithm must outlive this.
  explicit CallCountingAlgorithm(const sched::PhaseAlgorithm& inner)
      : inner_(inner) {}

  [[nodiscard]] sched::SearchResult schedule_phase(
      const std::vector<tasks::Task>& batch,
      const std::vector<SimDuration>& base_loads, SimTime delivery_time,
      const machine::Interconnect& net,
      std::uint64_t vertex_budget) const override {
    ++calls_;
    return inner_.schedule_phase(batch, base_loads, delivery_time, net,
                                 vertex_budget);
  }
  [[nodiscard]] tasks::TaskOrder pending_order() const override {
    return inner_.pending_order();
  }
  [[nodiscard]] sched::SearchResult schedule_pending(
      const tasks::Batch& batch, const std::vector<SimDuration>& base_loads,
      SimTime delivery_time, const machine::Interconnect& net,
      std::uint64_t vertex_budget) const override {
    ++calls_;
    return inner_.schedule_pending(batch, base_loads, delivery_time, net,
                                   vertex_budget);
  }
  [[nodiscard]] bool futile_answer_persists() const override {
    return inner_.futile_answer_persists();
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

  /// schedule_phase and schedule_pending calls so far.
  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  const sched::PhaseAlgorithm& inner_;
  mutable std::uint64_t calls_{0};
};

}  // namespace rtds::testing
