#include "trace.h"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <unordered_set>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRun: return "sched.run";
    case Layer::kSource: return "tasks.source";
    case Layer::kQuantum: return "sched.quantum";
    case Layer::kSearch: return "search";
    case Layer::kLoad: return "machine.load";
    case Layer::kDeliver: return "machine.deliver";
    case Layer::kClock: return "sim.advance_wait";
    case Layer::kDrain: return "sim.drain";
    case Layer::kBackendEtc: return "backend.other";
    case Layer::kCount: break;
  }
  return "?";
}

Tracer::Tracer(std::size_t window) : window_(window) {}

std::uint64_t Tracer::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Tracer::span_cost_ns() {
  // Empty spans through the same recording path the traced run uses;
  // repeated, and the median round kept, so one descheduling does not skew
  // the estimate.
  constexpr int kSpans = 200000;
  std::vector<double> rounds;
  for (int round = 0; round < 5; ++round) {
    Tracer probe(64);
    const std::uint64_t start = now_ns();
    for (int i = 0; i < kSpans; ++i) {
      const Span span(&probe, Layer::kLoad);
    }
    rounds.push_back(double(now_ns() - start) / kSpans);
  }
  std::sort(rounds.begin(), rounds.end());
  return rounds[rounds.size() / 2];
}

void Tracer::record(Layer layer, std::uint64_t start_ns, std::uint64_t end_ns,
                    std::uint64_t timer_ns) {
  LayerStats& s = stats_[static_cast<std::size_t>(layer)];
  const std::uint64_t duration = end_ns - start_ns;
  s.count += 1;
  s.raw_ns += duration;
  s.timer_ns += timer_ns;
  s.durations.add(duration);
  window_[next_] = {trace_, start_ns, end_ns, layer};
  if (++next_ == window_.size()) {
    next_ = 0;
    wrapped_ = true;
  }
}

std::uint64_t Tracer::child_spans() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < stats_.size(); ++i) {
    if (static_cast<Layer>(i) != Layer::kRun) n += stats_[i].count;
  }
  return n;
}

void Tracer::write_window(std::ostream& os) const {
  const std::size_t n = wrapped_ ? window_.size() : next_;
  const std::size_t first = wrapped_ ? next_ : 0;
  for (std::size_t i = 0; i < n; ++i) {
    const SpanRecord& r = window_[(first + i) % window_.size()];
    os << "{\"trace\": " << r.trace << ", \"name\": \"" << layer_name(r.layer)
       << "\", \"parent\": \""
       << (r.layer == Layer::kRun ? "" : layer_name(Layer::kRun))
       << "\", \"start_ns\": " << r.start_ns << ", \"end_ns\": " << r.end_ns
       << "}\n";
  }
}

rtds::search::SearchResult TracedAlgorithm::schedule_phase(
    const std::vector<rtds::tasks::Task>& batch,
    const std::vector<rtds::SimDuration>& base_loads,
    rtds::SimTime delivery_time, const rtds::machine::Interconnect& net,
    std::uint64_t vertex_budget) const {
  std::optional<rtds::search::SearchResult> result;
  {
    const Span span(tracer_, Layer::kSearch);
    result.emplace(inner_.schedule_phase(batch, base_loads, delivery_time, net,
                                         vertex_budget));
  }
  if (counters_ != nullptr) {
    counters_->calls += 1;
    counters_->batch_tasks += batch.size();
    counters_->vertices += result->stats.vertices_generated;
    counters_->empty_results += result->schedule.empty() ? 1 : 0;
  }
  return *std::move(result);
}

rtds::sched::DeliveryResult RecordingBackend::deliver(
    const std::vector<rtds::machine::ScheduledAssignment>& schedule) {
  std::optional<rtds::sched::DeliveryResult> result;
  {
    const Span span(tracer_, Layer::kDeliver);
    result.emplace(inner_.deliver(schedule));
  }
  if (latency_us_ != nullptr) {
    std::unordered_set<rtds::tasks::TaskId> refused;
    for (const auto& r : result->undelivered) refused.insert(r.task.id);
    const rtds::SimTime at = inner_.now();
    for (const auto& a : schedule) {
      if (refused.count(a.task.id) != 0) continue;
      latency_us_->add(static_cast<std::uint64_t>((at - a.task.arrival).us));
    }
  }
  return *std::move(result);
}

void CountingObserver::on_phase(const rtds::sched::PhaseRecord& record) {
  counts_.phases += 1;
  counts_.futile += (record.scheduled == 0 && record.arrivals == 0) ? 1 : 0;
}

}  // namespace perfbench
