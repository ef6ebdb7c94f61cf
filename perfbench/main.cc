// Host throughput of the RT-SADS phase pipeline on one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--spans PATH]
//
// Builds one pass of the workload's inputs from the seed (workloads.h) and
// runs it once as the reference: that run records schedule latency and
// phase counts, which are simulated outputs and so depend on the seed only,
// and peak RSS is read right after it. Then it repeats the pass, bare, for
// S seconds of host time. Throughput comes from the fastest pass: on a
// shared host, interference only ever slows a pass down, for seconds at a
// time, and the fastest pass is what repeats best from run to run (over ten
// 10 s runs of onoff_burst on a shared 4-core AMD EPYC host, the median
// pass time spread 5% between quartiles, the fastest pass 3%). Set-up time
// is the median over passes. Every repetition must reproduce the reference
// RunMetrics exactly and pass the correction-theorem and five-term
// conservation checks; fig5_burst also re-checks the paper's
// Fig. 5 headline cell. The last stdout line is the result object; the line
// before it records the effective parameters, sample counts and machine.
//
// --trace 1 alternates bare repetitions with traced ones (every layer call
// timed through the decorators of trace.h) and reports the per-layer
// metrics instead, plus the tracing overhead. --spans writes the last
// spans of the traced run as JSON lines.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "fingerprint.h"
#include "histogram.h"
#include "search/engine.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

constexpr int kMinRepetitions = 3;
/// A latency quantile is reported only with this many samples beyond it.
constexpr std::uint64_t kMinBeyond = 10;

struct Args {
  std::string workload;
  std::uint64_t seed{0};
  double seconds{0.0};
  int trace{-1};
  std::string spans;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') a.seconds = 0;
    } else if (flag == "--trace") {
      a.trace = value == "0" ? 0 : value == "1" ? 1 : -1;
    } else if (flag == "--spans") {
      a.spans = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!have_seed) usage("--seed must be a non-negative integer");
  if (!(a.seconds > 0 && a.seconds <= 3600)) usage("--seconds out of range");
  if (a.trace < 0) usage("--trace must be 0 or 1");
  return a;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

class MetricList {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      non_finite.push_back(name);
      value = 0.0;  // keeps the line valid JSON; the run is marked failed
    }
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << "\"" << name << "\": {\"value\": " << value << ", \"unit\": \""
       << unit << "\"}";
    items_.push_back(os.str());
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      out += (i ? ", " : "") + items_[i];
    }
    return out + "}";
  }

  std::vector<std::string> non_finite;

 private:
  std::vector<std::string> items_;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Runs one repetition of the pass and checks it against the reference.
class PassRunner {
 public:
  PassRunner(const Workload& workload,
             std::vector<rtds::sched::RunMetrics> reference)
      : workload_(workload), reference_(std::move(reference)) {}

  /// Host ns inside run_stream over the pass.
  std::uint64_t run(const Instruments& instruments) {
    SetupTimes times;
    std::vector<Cell> cells = workload_.setup(times);
    setups.push_back(times);
    std::uint64_t wall = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellRun r = run_cell(cells[i], instruments);
      wall += r.wall_ns;
      attempted += cells[i].offered;
      std::string why = check_run(r.metrics, cells[i].offered);
      if (why.empty()) {
        const std::string field = first_difference(r.metrics, reference_.at(i));
        if (!field.empty()) why = "RunMetrics." + field + " differs from the reference run";
      }
      if (!why.empty()) {
        failed += cells[i].offered;
        failures.push_back("cell " + std::to_string(i) + ": " + why);
      }
    }
    return wall;
  }

  std::vector<SetupTimes> setups;
  std::vector<std::string> failures;
  std::uint64_t attempted{0};
  std::uint64_t failed{0};

 private:
  const Workload& workload_;
  std::vector<rtds::sched::RunMetrics> reference_;
};

/// The Fig. 5 headline cell (m=10, R=30%, SF=1, the protocol's first 10
/// seeds) must still read RT-SADS 15.3% and D-COLS 8.4%.
void check_fig5_golden(std::vector<std::string>& failures, std::ostream& log) {
  const auto golden = make_fig5_golden();
  SetupTimes times;
  std::vector<Cell> cells = golden->setup(times);
  // Cells alternate rt_sads, d_cols (one pair per seed).
  double sum_pct[2] = {0.0, 0.0};
  int runs[2] = {0, 0};
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellRun r = run_cell(cells[i], {});
    const std::string why = check_run(r.metrics, cells[i].offered);
    if (!why.empty()) failures.push_back("golden cell " + std::to_string(i) + ": " + why);
    sum_pct[i % 2] += r.metrics.hit_ratio() * 100.0;
    runs[i % 2] += 1;
  }
  const double pinned[2] = {15.3, 8.4};
  const char* names[2] = {"rt_sads", "d_cols"};
  log << "\"fig5_golden\": {";
  for (int k = 0; k < 2; ++k) {
    const double mean = sum_pct[k] / runs[k];
    log << (k ? ", " : "") << "\"" << names[k] << "_hit_pct\": " << mean;
    if (std::fabs(mean - pinned[k]) >= 0.05) {
      std::ostringstream os;
      os << "fig5 golden: " << names[k] << " m=10 hit " << mean
         << "% != pinned " << pinned[k] << "%";
      failures.push_back(os.str());
    }
  }
  log << "}, ";
}

int run(const Args& args) {
  const auto workload = make_workload(args.workload, args.seed);
  std::ostringstream detail;
  detail << "{\"perfbench\": {\"workload\": " << json_string(args.workload)
         << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
         << ", \"trace\": " << args.trace
         << ", \"params\": " << workload->params_json()
         << ", \"machine\": " << fingerprint_json() << ", ";

  // Reference repetition: simulated outputs only, no timers.
  LogLinearHistogram latency;
  SearchCounters search;
  PhaseCounts phases;
  std::vector<rtds::sched::RunMetrics> reference;
  std::uint64_t pass_offered = 0;
  std::uint64_t pass_hits = 0;
  std::vector<std::string> failures;
  {
    SetupTimes times;
    std::vector<Cell> cells = workload->setup(times);
    for (Cell& cell : cells) {
      const CellRun r = run_cell(cell, {nullptr, &latency, &search, &phases});
      const std::string why = check_run(r.metrics, cell.offered);
      if (!why.empty()) failures.push_back("reference: " + why);
      pass_offered += cell.offered;
      pass_hits += r.metrics.deadline_hits;
      reference.push_back(r.metrics);
    }
  }
  const double rss_mb = peak_rss_mb();
  PassRunner runner(*workload, reference);
  runner.attempted += pass_offered;

  // Timed repetitions.
  Tracer tracer;
  const double span_cost_ns = args.trace == 1 ? Tracer::span_cost_ns() : 0.0;
  std::vector<double> bare_wall;
  std::vector<double> traced_wall;
  const std::uint64_t deadline =
      Tracer::now_ns() + static_cast<std::uint64_t>(args.seconds * 1e9);
  for (std::uint64_t rep = 0;; ++rep) {
    const bool enough =
        int(bare_wall.size()) >= kMinRepetitions &&
        (args.trace == 0 || int(traced_wall.size()) >= kMinRepetitions);
    if (enough && Tracer::now_ns() >= deadline) break;
    if (args.trace == 1 && rep % 2 == 1) {
      tracer.set_trace(rep);
      traced_wall.push_back(double(runner.run({&tracer})));
    } else {
      bare_wall.push_back(double(runner.run({})));
    }
  }
  failures.insert(failures.end(), runner.failures.begin(),
                  runner.failures.end());
  const double fastest = *std::min_element(bare_wall.begin(), bare_wall.end());

  detail << "\"repetitions\": {\"reference\": 1, \"bare\": " << bare_wall.size()
         << ", \"traced\": " << traced_wall.size() << "}, "
         << "\"pass_host_ms\": {\"min\": " << fastest * 1e-6
         << ", \"median\": " << median(bare_wall) * 1e-6 << "}, "
         << "\"pass\": {\"cells\": " << reference.size()
         << ", \"offered\": " << pass_offered
         << ", \"deadline_hits\": " << pass_hits << "}, ";

  if (args.workload == "fig5_burst") check_fig5_golden(failures, detail);

  // Schedule latency of the reference repetition.
  const double quantiles[3] = {0.5, 0.99, 0.999};
  const char* qnames[3] = {"p50", "p99", "p999"};
  detail << "\"latency_us\": {\"samples\": " << latency.count()
         << ", \"relative_error\": " << latency.relative_error();
  for (int i = 0; i < 3; ++i) {
    detail << ", \"" << qnames[i] << "_beyond\": " << latency.beyond(quantiles[i]);
    if (latency.count() == 0 || latency.beyond(quantiles[i]) < kMinBeyond) {
      failures.push_back(std::string("too few latency samples beyond ") +
                         qnames[i]);
    }
  }
  if (latency.overflow() != 0) failures.push_back("latency overflow");
  detail << "}, ";

  std::uint64_t setup_total = 0, db_ns[3] = {0, 0, 0};
  std::vector<double> setup_s;
  for (const SetupTimes& t : runner.setups) {
    setup_s.push_back(double(t.total_ns) * 1e-9);
    setup_total += t.total_ns;
    db_ns[0] += t.database_ns;
    db_ns[1] += t.transactions_ns;
    db_ns[2] += t.to_tasks_ns;
  }
  const double reps = double(runner.setups.size());
  detail << "\"setup_ns_mean\": {\"total\": " << double(setup_total) / reps
         << ", \"database\": " << double(db_ns[0]) / reps
         << ", \"transactions\": " << double(db_ns[1]) / reps
         << ", \"to_tasks\": " << double(db_ns[2]) / reps << "}, ";

  MetricList metrics;
  const double hit_pct = 100.0 * double(pass_hits) / double(pass_offered);
  if (args.trace == 0) {
    metrics.add("tasks_per_s", double(pass_offered) / (fastest * 1e-9), "1/s");
    metrics.add("setup_s", median(setup_s), "s");
    metrics.add("peak_rss_mb", rss_mb, "MB");
    metrics.add("hit_pct", hit_pct, "%");
    metrics.add("sched_latency_p50_us", latency.quantile(0.5), "us");
    metrics.add("sched_latency_p99_us", latency.quantile(0.99), "us");
    metrics.add("sched_latency_p999_us", latency.quantile(0.999), "us");
  } else {
    const double passes = double(traced_wall.size());
    const double offered = passes * double(pass_offered);
    auto true_ns = [&](Layer l) { return tracer.stats(l).true_ns(); };
    // The pipeline's self time is the bare pass minus what its callees took
    // per traced pass (each span less the timer cost measured inside it), so
    // the rest of the tracing overhead never lands in any layer.
    const double run_ns = median(bare_wall);
    double children = 0.0;
    for (int l = 0; l < int(Layer::kCount); ++l) {
      if (Layer(l) != Layer::kRun) children += true_ns(Layer(l)) / passes;
    }
    const double self_ns = run_ns - children;
    auto share = [&](double ns) { return 100.0 * ns / passes / run_ns; };
    auto per_call = [&](Layer l, double q) {
      const LayerStats& s = tracer.stats(l);
      return s.durations.quantile(q) - s.timer_per_span();
    };
    const double n_phases = double(phases.phases);
    metrics.add("sched.phases", n_phases, "count");
    metrics.add("sched.phases_per_task", n_phases / double(pass_offered),
                "phase/task");
    metrics.add("sched.futile_phase_pct",
                100.0 * double(phases.futile) / n_phases, "%");
    metrics.add("sched.self_ns_per_phase", self_ns / n_phases, "ns");
    metrics.add("sched.self_share_pct", 100.0 * self_ns / run_ns, "%");
    metrics.add("sched.quantum.ns", true_ns(Layer::kQuantum) / offered,
                "ns/task");
    const double calls = double(search.calls);
    metrics.add("search.calls", calls, "count");
    metrics.add("search.ns_per_call_p50", per_call(Layer::kSearch, 0.5), "ns");
    metrics.add("search.ns_per_call_p99", per_call(Layer::kSearch, 0.99), "ns");
    metrics.add("search.busy_share_pct", share(true_ns(Layer::kSearch)), "%");
    metrics.add("search.batch_mean", double(search.batch_tasks) / calls,
                "task");
    metrics.add("search.vertices", double(search.vertices), "count");
    metrics.add("search.vertices_per_s",
                double(search.vertices) * passes /
                    (true_ns(Layer::kSearch) * 1e-9),
                "1/s");
    metrics.add("search.empty_result_pct",
                100.0 * double(search.empty_results) / calls, "%");
    metrics.add("search.workspace_peak_bytes",
                double(rtds::search::thread_workspace_peak_bytes()), "B");
    metrics.add("tasks.source.calls",
                double(tracer.stats(Layer::kSource).count) / passes, "count");
    metrics.add("tasks.source.ns", true_ns(Layer::kSource) / offered,
                "ns/task");
    metrics.add("tasks.source.busy_share_pct", share(true_ns(Layer::kSource)),
                "%");
    metrics.add("machine.load.calls",
                double(tracer.stats(Layer::kLoad).count) / passes, "count");
    metrics.add("machine.load.ns", true_ns(Layer::kLoad) / offered, "ns/task");
    metrics.add("machine.deliver.ns", true_ns(Layer::kDeliver) / offered,
                "ns/task");
    metrics.add("sim.advance_wait.ns", true_ns(Layer::kClock) / offered,
                "ns/task");
    metrics.add("sim.drain.ns", true_ns(Layer::kDrain) / offered, "ns/task");
    const double setup_ns = double(setup_total);
    metrics.add("db.database_pct", 100.0 * double(db_ns[0]) / setup_ns, "%");
    metrics.add("db.transactions_pct", 100.0 * double(db_ns[1]) / setup_ns,
                "%");
    metrics.add("db.to_tasks_pct", 100.0 * double(db_ns[2]) / setup_ns, "%");
    metrics.add("trace.overhead_ratio", median(traced_wall) / run_ns, "x");
    metrics.add("trace.timer_ns", span_cost_ns, "ns");
    detail << "\"trace\": {\"inner_timer_ns_per_span\": "
           << tracer.stats(Layer::kLoad).timer_per_span()
           << ", \"overhead_ns_per_span\": "
           << (median(traced_wall) - run_ns) /
                  (double(tracer.child_spans()) / passes)
           << "}, ";
    if (!args.spans.empty()) {
      std::ofstream out(args.spans);
      tracer.write_window(out);
      if (!out) failures.push_back("cannot write " + args.spans);
    }
  }

  for (const std::string& name : metrics.non_finite) {
    failures.push_back("metric " + name + " is not finite");
  }

  // Deterministic outputs, reported in both modes so a traced result can
  // be compared with an untraced one.
  detail << "\"deterministic\": {\"hit_pct\": " << hit_pct;
  for (int i = 0; i < 3; ++i) {
    detail << ", \"sched_latency_" << qnames[i]
           << "_us\": " << latency.quantile(quantiles[i]);
  }
  detail << ", \"phases\": " << phases.phases << "}, \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    detail << (i ? ", " : "") << json_string(failures[i]);
  }
  detail << "]}}";

  const bool correct = failures.empty();
  std::cout << detail.str() << "\n"
            << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << runner.attempted
            << ", \"failed\": " << runner.failed
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  for (const std::string& f : failures) std::cerr << "perfbench: " << f << "\n";
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
