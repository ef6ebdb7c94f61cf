// Shared helpers for the figure/table benchmark binaries.
//
// Every bench prints (1) a fixed-width table mirroring the paper's series,
// with mean ± 99% confidence half-width over the repeated runs, and (2) a
// CSV block for plotting. Benches are plain executables; each runs in
// seconds.
#pragma once

#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/rng.h"
#include "exp/experiment.h"
#include "exp/table.h"
#include "sched/registry.h"
#include "search/simd.h"

namespace rtds::bench {

/// The processor's brand string, read from the processor itself, or
/// "unknown".
inline std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
  }
  char brand[sizeof(regs) + 1] = {};
  std::memcpy(brand, regs, sizeof(regs));
  const std::string s(brand);
  const auto first = s.find_first_not_of(' ');
  const auto last = s.find_last_not_of(' ');
  return first == std::string::npos ? "unknown"
                                    : s.substr(first, last - first + 1);
#else
  return "unknown";
#endif
}

/// JSON object naming the machine and build a bench ran on, with the
/// fields of perfbench's fingerprint: hardware_concurrency, cpu_model,
/// build_type, asserts, simd tier and compiler.
inline std::string machine_json() {
#if defined(RTDS_DISABLE_ASSERTS)
  constexpr bool asserts = false;
#else
  constexpr bool asserts = true;
#endif
  std::ostringstream os;
  os << "{\"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": \"" << cpu_model() << "\", \"build_type\": \""
     << RTDS_BUILD_TYPE << "\", \"asserts\": " << (asserts ? "true" : "false")
     << ", \"simd\": \"" << search::simd::backend_name()
     << "\", \"compiler\": \"" << __VERSION__ << "\"}";
  return os.str();
}

/// Builds a portfolio member from its registry spec — the ONE way benches
/// construct algorithms, so every bench accepts the same spec strings as
/// rtds_fuzz --algo and the tournament, and a spec typo fails loudly at
/// startup instead of silently benchmarking the wrong configuration.
inline std::unique_ptr<sched::PhaseAlgorithm> make_algo(
    const std::string& spec) {
  return sched::AlgorithmRegistry::builtin().make(spec);
}

/// Workload seed for repetition `rep` of the named bench: a named rng
/// substream off `base` (common/rng.h). All benches derive their seeds
/// here — one convention instead of per-bench magic base-seed constants —
/// and distinct names guarantee distinct streams even off the same base.
inline std::uint64_t bench_seed(std::uint64_t base, const char* bench_name,
                                std::uint64_t rep) {
  return derive_seed(base, stream_id(bench_name), rep);
}

/// bench_seed() off the shared experiment default base seed, for benches
/// that take no ExperimentConfig.
inline std::uint64_t bench_seed(const char* bench_name, std::uint64_t rep) {
  return bench_seed(exp::ExperimentConfig{}.base_seed, bench_name, rep);
}

/// One algorithm column of a figure: a display name plus its aggregate.
struct Series {
  std::string name;
  std::vector<exp::Aggregate> points;
};

/// Prints the standard bench header.
inline void print_header(const std::string& title,
                         const std::string& paper_ref,
                         const std::string& expectation) {
  std::cout << "==============================================================="
               "=\n"
            << title << "\n"
            << "Reproduces: " << paper_ref << "\n"
            << "Expected shape: " << expectation << "\n"
            << "==============================================================="
               "=\n";
}

/// Prints hit-ratio series over an x-axis: one row per x value, one column
/// pair (mean ± ci) per algorithm; then the CSV block.
inline void print_hit_ratio_table(const std::string& x_name,
                                  const std::vector<std::string>& x_values,
                                  const std::vector<Series>& series) {
  std::vector<std::string> header{x_name};
  for (const Series& s : series) {
    header.push_back(s.name + " hit%");
    header.push_back("±99%ci");
  }
  exp::TextTable table(header);
  for (std::size_t i = 0; i < x_values.size(); ++i) {
    std::vector<std::string> row{x_values[i]};
    for (const Series& s : series) {
      const auto& agg = s.points[i];
      row.push_back(exp::fmt(agg.hit_ratio.mean() * 100.0, 1));
      row.push_back(exp::fmt(confidence_interval(agg.hit_ratio) * 100.0, 1));
    }
    table.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\nCSV:\n";
  table.print_csv(std::cout);
  std::cout << "\n";
}

/// Prints the paper's difference-of-means protocol between the first two
/// series at the given point index.
inline void print_welch(const std::vector<Series>& series, std::size_t index,
                        const std::string& where) {
  if (series.size() < 2) return;
  const WelchResult w =
      exp::compare_hit_ratios(series[0].points[index], series[1].points[index]);
  std::cout << "Two-tailed Welch difference-of-means at " << where << ": t="
            << exp::fmt(w.t_statistic, 2)
            << ", df=" << exp::fmt(w.degrees_of_freedom, 1)
            << ", p=" << exp::fmt(w.p_value, 6)
            << (w.significant(0.01) ? "  (significant at the paper's 0.01 level)"
                                    : "  (NOT significant at 0.01)")
            << "\n\n";
}

}  // namespace rtds::bench
