// Per-layer timing from outside the program.
//
// Every layer the phase pipeline calls through is reached via a public
// interface: tasks::ArrivalSource, sched::QuantumPolicy,
// sched::PhaseAlgorithm and sched::ExecutionBackend. The decorators below
// forward each call unchanged (the pattern of
// testing::FaultInjectingBackend) and, when given a Tracer, time it as a
// span. The pipeline itself is the parent of every span: its self time is
// the run span minus the child spans. A sched::PhaseObserver counts phases
// in the untimed reference run only, so traced runs pay nothing for it.
//
// Memory stays bounded however long the traced run is: spans are
// aggregated per layer (count, summed duration, duration histogram) and
// only the most recent `window` spans are kept whole.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <vector>

#include "histogram.h"
#include "sched/algorithm.h"
#include "sched/backend.h"
#include "sched/quantum.h"
#include "sched/trace.h"
#include "tasks/arrival_source.h"

namespace perfbench {

/// Span names. kRun is the run_stream call; every other layer is its child.
enum class Layer : std::uint8_t {
  kRun,
  kSource,     ///< tasks::ArrivalSource peek/next
  kQuantum,    ///< sched::QuantumPolicy::allocate
  kSearch,     ///< sched::PhaseAlgorithm::schedule_phase
  kLoad,       ///< ExecutionBackend::load (machine::Cluster::load)
  kDeliver,    ///< ExecutionBackend::deliver (machine::Cluster::deliver)
  kClock,      ///< ExecutionBackend::now/advance/wait_until (sim clock)
  kDrain,      ///< ExecutionBackend::drain (sim run-out + outcome report)
  kBackendEtc, ///< ExecutionBackend::num_workers/interconnect/bind_ledger
  kCount,
};

[[nodiscard]] const char* layer_name(Layer layer);

struct LayerStats {
  std::uint64_t count{0};
  std::uint64_t raw_ns{0};  ///< summed span durations, timer cost included
  /// Summed back-to-back clock reads, one taken right after each span ends:
  /// the timer cost inside a span, measured where the span ran.
  std::uint64_t timer_ns{0};
  /// 7 sub-bits: quantiles within 1.6%, and small enough to stay in cache.
  LogLinearHistogram durations{7};

  /// Summed span durations less the timer cost inside them. A call cheaper
  /// than the timer's resolution can read a few ns below zero.
  [[nodiscard]] double true_ns() const {
    return double(raw_ns) - double(timer_ns);
  }
  /// Mean timer cost inside one span.
  [[nodiscard]] double timer_per_span() const {
    return count == 0 ? 0.0 : double(timer_ns) / double(count);
  }
};

/// One whole span. Every span's parent is the kRun span of its trace.
struct SpanRecord {
  std::uint64_t trace{0};  ///< which run_stream call
  std::uint64_t start_ns{0};
  std::uint64_t end_ns{0};
  Layer layer{Layer::kRun};
};

class Tracer {
 public:
  explicit Tracer(std::size_t window = 1024);

  static std::uint64_t now_ns();
  /// Whole cost of one span (three clock reads plus recording) in a tight
  /// loop. The traced run's own overhead is measured against the bare run.
  static double span_cost_ns();

  void set_trace(std::uint64_t trace) { trace_ = trace; }
  void record(Layer layer, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint64_t timer_ns);

  [[nodiscard]] const LayerStats& stats(Layer layer) const {
    return stats_[static_cast<std::size_t>(layer)];
  }
  /// Spans of kRun's children, i.e. every layer but kRun.
  [[nodiscard]] std::uint64_t child_spans() const;

  /// The retained window as JSON lines, oldest first.
  void write_window(std::ostream& os) const;

 private:
  std::array<LayerStats, static_cast<std::size_t>(Layer::kCount)> stats_;
  std::vector<SpanRecord> window_;
  std::size_t next_{0};
  bool wrapped_{false};
  std::uint64_t trace_{0};
};

/// RAII span; a null tracer makes it free of clock reads.
class Span {
 public:
  Span(Tracer* tracer, Layer layer)
      : tracer_(tracer), layer_(layer),
        start_(tracer != nullptr ? Tracer::now_ns() : 0) {}
  ~Span() {
    if (tracer_ != nullptr) {
      const std::uint64_t end = Tracer::now_ns();
      tracer_->record(layer_, start_, end, Tracer::now_ns() - end);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  Layer layer_;
  std::uint64_t start_;
};

class TracedSource final : public rtds::tasks::ArrivalSource {
 public:
  TracedSource(rtds::tasks::ArrivalSource& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] std::optional<rtds::SimTime> peek() override {
    const Span span(tracer_, Layer::kSource);
    return inner_.peek();
  }
  rtds::tasks::Task next() override {
    const Span span(tracer_, Layer::kSource);
    return inner_.next();
  }

 private:
  rtds::tasks::ArrivalSource& inner_;
  Tracer* tracer_;
};

class TracedQuantum final : public rtds::sched::QuantumPolicy {
 public:
  TracedQuantum(const rtds::sched::QuantumPolicy& inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  [[nodiscard]] rtds::SimDuration allocate(
      rtds::SimDuration min_slack, rtds::SimDuration min_load) const override {
    const Span span(tracer_, Layer::kQuantum);
    return inner_.allocate(min_slack, min_load);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  const rtds::sched::QuantumPolicy& inner_;
  Tracer* tracer_;
};

/// What the search layer did, counted at schedule_phase.
struct SearchCounters {
  std::uint64_t calls{0};
  std::uint64_t batch_tasks{0};  ///< summed batch sizes
  std::uint64_t vertices{0};
  std::uint64_t empty_results{0};
};

/// Forwards name() but not threads(): every workload here is single
/// threaded, and the base class answers 1.
class TracedAlgorithm final : public rtds::sched::PhaseAlgorithm {
 public:
  TracedAlgorithm(const rtds::sched::PhaseAlgorithm& inner, Tracer* tracer,
                  SearchCounters* counters)
      : inner_(inner), tracer_(tracer), counters_(counters) {}

  [[nodiscard]] rtds::search::SearchResult schedule_phase(
      const std::vector<rtds::tasks::Task>& batch,
      const std::vector<rtds::SimDuration>& base_loads,
      rtds::SimTime delivery_time, const rtds::machine::Interconnect& net,
      std::uint64_t vertex_budget) const override;
  [[nodiscard]] std::string name() const override { return inner_.name(); }

 private:
  const rtds::sched::PhaseAlgorithm& inner_;
  Tracer* tracer_;
  SearchCounters* counters_;
};

/// Backend decorator. With a latency histogram it records, for every
/// assignment the inner backend accepted, the simulated time from the
/// task's arrival to the delivery (microseconds) — the wait for a phase
/// boundary included. With a tracer it times every call.
class RecordingBackend final : public rtds::sched::ExecutionBackend {
 public:
  RecordingBackend(rtds::sched::ExecutionBackend& inner, Tracer* tracer,
                   LogLinearHistogram* latency_us)
      : inner_(inner), tracer_(tracer), latency_us_(latency_us) {}

  [[nodiscard]] std::uint32_t num_workers() const override {
    const Span span(tracer_, Layer::kBackendEtc);
    return inner_.num_workers();
  }
  [[nodiscard]] const rtds::machine::Interconnect& interconnect()
      const override {
    const Span span(tracer_, Layer::kBackendEtc);
    return inner_.interconnect();
  }
  [[nodiscard]] rtds::SimTime now() const override {
    const Span span(tracer_, Layer::kClock);
    return inner_.now();
  }
  [[nodiscard]] rtds::SimDuration load(std::uint32_t worker,
                                       rtds::SimTime t) const override {
    const Span span(tracer_, Layer::kLoad);
    return inner_.load(worker, t);
  }
  void wait_until(rtds::SimTime t) override {
    const Span span(tracer_, Layer::kClock);
    inner_.wait_until(t);
  }
  void advance(rtds::SimDuration host_busy) override {
    const Span span(tracer_, Layer::kClock);
    inner_.advance(host_busy);
  }
  rtds::sched::DeliveryResult deliver(
      const std::vector<rtds::machine::ScheduledAssignment>& schedule)
      override;
  rtds::sched::BackendStats drain() override {
    const Span span(tracer_, Layer::kDrain);
    return inner_.drain();
  }
  void bind_ledger(rtds::sched::TaskLedger* ledger) override {
    const Span span(tracer_, Layer::kBackendEtc);
    inner_.bind_ledger(ledger);
  }

 private:
  rtds::sched::ExecutionBackend& inner_;
  Tracer* tracer_;
  LogLinearHistogram* latency_us_;
};

/// Per-phase counts the pipeline reports through its observer.
struct PhaseCounts {
  std::uint64_t phases{0};
  /// Phases that scheduled nothing and merged no new arrivals: a
  /// re-search of a batch the previous phase already failed to place.
  std::uint64_t futile{0};
};

class CountingObserver final : public rtds::sched::PhaseObserver {
 public:
  explicit CountingObserver(PhaseCounts& counts) : counts_(counts) {}
  void on_phase(const rtds::sched::PhaseRecord& record) override;

 private:
  PhaseCounts& counts_;
};

}  // namespace perfbench
