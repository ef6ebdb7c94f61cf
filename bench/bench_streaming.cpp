// Streaming service-mode bench: schedule-latency tails and the maximum
// sustainable arrival rate of the open-system pipeline.
//
//   bench_streaming [--quick] [--tasks N] [--workers M] [--out PATH]
//
// Drives PhasePipeline::run_stream with a Poisson ArrivalSource (the classic
// open service-system model) at a ladder of offered rates, per algorithm
// spec. Two questions a closed-workload figure cannot answer:
//
//   1. Latency tails: at a comfortably sustainable reference rate, what are
//      the p50/p99/p999 of schedule latency (arrival -> delivery acceptance)?
//   2. Capacity: ramp the offered rate until the deadline-hit ratio drops
//      below 95% — the highest rate still above the bar is the max
//      sustainable rate, the open-system analogue of the paper's "scheduling
//      capacity binds" regime (Sec. 5).
//
// Everything runs on the DES backend with a fixed derived seed, so the
// numbers (and BENCH_STREAMING.json, uploaded by the release-fast CI job)
// are bit-identical across machines and runs.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/histogram.h"
#include "machine/cluster.h"
#include "machine/interconnect.h"
#include "sched/backend.h"
#include "sched/pipeline.h"
#include "sched/quantum.h"
#include "sim/simulator.h"
#include "tasks/arrival_source.h"

namespace {

using namespace rtds;

constexpr double kSustainableHitPct = 95.0;

/// One streaming run at one offered rate.
struct RatePoint {
  double rate_per_sec{0.0};
  std::int64_t gap_us{0};
  double hit_pct{0.0};
  std::uint64_t admission_rejected{0};
  std::uint64_t samples{0};
  double p50_us{0.0};
  double p99_us{0.0};
  double p999_us{0.0};
};

struct AlgoOutcome {
  std::string spec;
  RatePoint reference;        ///< latency tails at the reference rate
  std::vector<RatePoint> ramp;
  double max_sustainable_rate{0.0};  ///< 0 when no ramp rate met the bar
};

RatePoint run_at_gap(const sched::PhaseAlgorithm& algo, std::int64_t gap_us,
                     std::uint32_t workers, std::uint32_t tasks,
                     std::size_t max_pending) {
  const auto quantum = sched::make_self_adjusting_quantum();
  const sched::PhasePipeline pipeline(algo, *quantum);

  machine::Cluster cluster(workers,
                           machine::Interconnect::cut_through(workers, usec(50)));
  sim::Simulator simulator;
  sched::SimBackend backend(cluster, simulator);

  tasks::StreamConfig cfg;
  // One substream per offered rate: the ramp points are independent draws,
  // but every (spec, rate) cell replays identically run to run.
  cfg.seed = bench::bench_seed("bench_streaming", std::uint64_t(gap_us));
  cfg.max_tasks = tasks;
  cfg.body.num_processors = workers;
  tasks::PoissonArrivalSource source(cfg, usec(gap_us));

  sched::StreamOptions opts;
  opts.max_pending = max_pending;
  sched::StreamStats stats;
  const sched::RunMetrics m = pipeline.run_stream(source, backend, opts, &stats);

  RatePoint p;
  p.gap_us = gap_us;
  p.rate_per_sec = 1.0e6 / double(gap_us);
  p.hit_pct = m.hit_ratio() * 100.0;
  p.admission_rejected = m.admission_rejected;
  p.samples = stats.schedule_latency.count();
  if (p.samples > 0) {
    p.p50_us = stats.schedule_latency.quantile(0.50);
    p.p99_us = stats.schedule_latency.quantile(0.99);
    p.p999_us = stats.schedule_latency.quantile(0.999);
  }
  return p;
}

void json_point(std::ostream& os, const RatePoint& p) {
  os << "{\"rate_per_sec\": " << exp::fmt(p.rate_per_sec, 1)
     << ", \"gap_us\": " << p.gap_us
     << ", \"hit_pct\": " << exp::fmt(p.hit_pct, 2)
     << ", \"admission_rejected\": " << p.admission_rejected
     << ", \"samples\": " << p.samples
     << ", \"p50_us\": " << exp::fmt(p.p50_us, 1)
     << ", \"p99_us\": " << exp::fmt(p.p99_us, 1)
     << ", \"p999_us\": " << exp::fmt(p.p999_us, 1) << "}";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::uint32_t tasks = 2000;
  std::uint32_t workers = 4;
  std::string out_path = "BENCH_STREAMING.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;
    } else if (a == "--tasks" && i + 1 < argc) {
      tasks = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 0));
    } else if (a == "--workers" && i + 1 < argc) {
      workers = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 0));
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_streaming [--quick] [--tasks N] "
                   "[--workers M] [--out PATH]\n";
      return 2;
    }
  }
  if (quick) tasks = std::min(tasks, 400u);

  // Mean processing is ~5.5 ms (WorkloadConfig default U[1,10] ms), so m=4
  // workers saturate near 1/1375us ~ 727 tasks/s; the ladder straddles that.
  const std::vector<std::string> specs =
      quick ? std::vector<std::string>{"rt_sads", "edf_ff"}
            : std::vector<std::string>{"rt_sads", "d_cols", "edf_ff"};
  const std::vector<std::int64_t> ramp_gaps_us =
      quick ? std::vector<std::int64_t>{4000, 2000, 1300, 900, 600}
            : std::vector<std::int64_t>{5000, 3500, 2500, 1800, 1300,
                                        1000, 800, 650, 500, 400};
  const std::int64_t reference_gap_us = 2000;  // ~500/s, well under capacity
  const std::size_t max_pending = 128;

  bench::print_header(
      "Streaming service mode: latency tails and max sustainable rate",
      "open-system reading of Sec. 4.4 phase pipelining (M/G/m arrivals)",
      "latency tails grow with the offered rate; tree search (rt_sads) "
      "sustains a higher rate than greedy EDF until scheduling capacity "
      "binds");
  std::cout << "workers: " << workers << ", tasks/run: " << tasks
            << ", admission bound: " << max_pending
            << ", sustainable bar: " << exp::fmt(kSustainableHitPct, 0)
            << "% hits, latency quantiles within max(0.5 us, "
            << exp::fmt(Histogram::relative_error() * 100.0, 4)
            << "%)\n\n";

  std::vector<AlgoOutcome> outcomes;
  for (const std::string& spec : specs) {
    const auto algo = bench::make_algo(spec);
    AlgoOutcome out;
    out.spec = spec;
    out.reference =
        run_at_gap(*algo, reference_gap_us, workers, tasks, max_pending);
    std::cout << spec << " @ " << exp::fmt(out.reference.rate_per_sec, 0)
              << "/s: p50 " << exp::fmt(out.reference.p50_us / 1000.0, 2)
              << " ms, p99 " << exp::fmt(out.reference.p99_us / 1000.0, 2)
              << " ms, p999 " << exp::fmt(out.reference.p999_us / 1000.0, 2)
              << " ms (" << out.reference.samples << " samples, hit "
              << exp::fmt(out.reference.hit_pct, 1) << "%)\n";
    std::cout << "  rate/s | hit%  | adm.rej | p99 ms\n"
              << "  -------+-------+---------+-------\n";
    for (const std::int64_t gap : ramp_gaps_us) {
      const RatePoint p = run_at_gap(*algo, gap, workers, tasks, max_pending);
      std::cout << "  " << exp::fmt(p.rate_per_sec, 0) << " | "
                << exp::fmt(p.hit_pct, 1) << " | " << p.admission_rejected
                << " | " << exp::fmt(p.p99_us / 1000.0, 2) << "\n";
      if (p.hit_pct >= kSustainableHitPct) {
        out.max_sustainable_rate =
            std::max(out.max_sustainable_rate, p.rate_per_sec);
      }
      out.ramp.push_back(p);
    }
    std::cout << "  max sustainable rate: "
              << exp::fmt(out.max_sustainable_rate, 0) << "/s\n\n";
    outcomes.push_back(std::move(out));
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"bench_streaming\",\n  \"mode\": \""
       << (quick ? "quick" : "full") << "\",\n  \"workers\": " << workers
       << ",\n  \"tasks_per_run\": " << tasks
       << ",\n  \"max_pending\": " << max_pending
       << ",\n  \"sustainable_hit_pct\": " << exp::fmt(kSustainableHitPct, 1)
       << ",\n  \"source\": \"poisson\",\n  \"algorithms\": [\n";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const AlgoOutcome& out = outcomes[i];
    json << "   {\"algo\": \"" << out.spec << "\",\n    \"reference\": ";
    json_point(json, out.reference);
    json << ",\n    \"ramp\": [\n";
    for (std::size_t j = 0; j < out.ramp.size(); ++j) {
      json << "     ";
      json_point(json, out.ramp[j]);
      json << (j + 1 < out.ramp.size() ? ",\n" : "\n");
    }
    json << "    ],\n    \"max_sustainable_rate_per_sec\": "
         << exp::fmt(out.max_sustainable_rate, 1) << "}"
         << (i + 1 < outcomes.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << json.str();
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
