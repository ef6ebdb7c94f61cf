// ABL-BASE — Greedy baselines around the two search schedulers.
//
// Not in the paper's figures: situates RT-SADS and D-COLS against cheap
// dynamic schedulers sharing the same predictive feasibility test — EDF
// first-fit, EDF best-fit, and a Ramamritham-Stankovic-style myopic window
// scheduler (the paper cites [6] as the lineage of the sequence-oriented
// techniques).
//
// EDF first-fit is RT-SADS with max_successors=1: an assignment-oriented
// depth-first search that keeps only the first feasible processor in index
// order never backtracks, and with one successor per level the cost
// function has nothing to sort. Expected shape: EDF best-fit is a strong
// cheap heuristic; RT-SADS's search adds value mainly under low replication
// where placement conflicts need backtracking; D-COLS trails everything
// that pays less than ~n vertices per placement.
#include <iostream>

#include "bench_util.h"
#include "exp/table.h"

int main() {
  using namespace rtds;
  using namespace rtds::bench;

  print_header("ABL-BASE — search schedulers vs greedy baselines",
               "extension of the Sec. 5 evaluation (R=30%, SF=1)",
               "RT-SADS >= EDF-best-fit >= myopic >= EDF-first-fit > D-COLS");

  const std::vector<std::unique_ptr<sched::PhaseAlgorithm>> algos = [] {
    std::vector<std::unique_ptr<sched::PhaseAlgorithm>> v;
    v.push_back(make_algo("rt_sads"));
    v.push_back(make_algo("d_cols"));
    v.push_back(make_algo("edf_bf"));
    v.push_back(make_algo("edf_ff"));
    v.push_back(make_algo("myopic"));
    return v;
  }();

  std::vector<std::string> header{"m"};
  for (const auto& a : algos) header.push_back(a->name() + " hit%");
  exp::TextTable table(header);

  for (std::uint32_t m : {2u, 4u, 6u, 8u, 10u}) {
    exp::ExperimentConfig cfg;
    cfg.num_workers = m;
    cfg.replication_rate = 0.3;
    cfg.scaling_factor = 1.0;
    cfg.num_transactions = 1000;
    cfg.repetitions = 10;
    std::vector<std::string> row{std::to_string(m)};
    for (const auto& a : algos) {
      row.push_back(
          exp::fmt(exp::run_repeated(cfg, *a).hit_ratio.mean() * 100, 1));
    }
    table.add_row(std::move(row));
  }

  table.print(std::cout);
  std::cout << "\nCSV:\n";
  table.print_csv(std::cout);
  return 0;
}
