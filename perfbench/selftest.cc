// Self-test of the benchmark's own instruments.
//
//   perfbench_selftest      (exit 0 on success; also registered with ctest)
//
// 1. The decorators are transparent: on a small pass of every workload,
//    the bare run and the fully instrumented run produce RunMetrics equal
//    field for field (search_wall_ns, a host time, excepted).
// 2. LogLinearHistogram quantiles lie within max(0.5, relative_error() * x)
//    of the exact nearest-rank quantile x of the same samples.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "common/rng.h"
#include "histogram.h"
#include "trace.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

void decorators_are_transparent() {
  for (const std::string& name : workload_names()) {
    const auto workload = make_workload(name, 7, 0.02);
    SetupTimes times;
    std::vector<Cell> bare = workload->setup(times);
    std::vector<Cell> traced = workload->setup(times);
    Tracer tracer(64);
    LogLinearHistogram latency;
    SearchCounters search;
    PhaseCounts phases;
    for (std::size_t i = 0; i < bare.size(); ++i) {
      const CellRun a = run_cell(bare[i], {});
      const CellRun b =
          run_cell(traced[i], {&tracer, &latency, &search, &phases});
      const std::string field = first_difference(a.metrics, b.metrics);
      expect(field.empty(), name + " cell " + std::to_string(i) +
                                ": traced RunMetrics." + field + " differs");
      expect(check_run(a.metrics, bare[i].offered).empty(),
             name + ": bare run fails its checks");
    }
    expect(phases.phases > 0 && search.calls == phases.phases,
           name + ": observer and search decorator disagree on phases");
    expect(latency.count() > 0, name + ": no latency samples recorded");
    expect(tracer.stats(Layer::kSearch).count == search.calls,
           name + ": search spans != search calls");
  }
}

void histogram_within_error_bound() {
  rtds::Xoshiro256ss rng(11);
  std::vector<std::uint64_t> values;
  LogLinearHistogram h;
  for (int i = 0; i < 100000; ++i) {
    // Log-uniform over [1, 2^36): every slot width the histogram has.
    const double exponent = rng.uniform_double(0.0, 36.0);
    const auto v = static_cast<std::uint64_t>(std::exp2(exponent));
    values.push_back(v);
    h.add(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.001, 0.1, 0.5, 0.9, 0.99, 0.999}) {
    const double exact = double(values[h.rank(q) - 1]);
    const double got = h.quantile(q);
    expect(std::fabs(got - exact) <=
               std::max(0.5, exact * h.relative_error()),
           "histogram quantile " + std::to_string(q) + " off: " +
               std::to_string(got) + " vs " + std::to_string(exact));
  }
}

}  // namespace

int main() {
  decorators_are_transparent();
  histogram_within_error_bound();
  if (failures != 0) {
    std::cerr << failures << " self-test failure(s)\n";
    return 1;
  }
  std::cout << "perfbench self-test passed\n";
  return 0;
}
