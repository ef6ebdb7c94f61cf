// Algorithm-portfolio tournament: every registry entrant on a grid of
// workload dials, with a who-wins-where table.
//
//   bench_tournament [--quick] [--reps N] [--transactions N] [--out PATH]
//
// Sweeps the three dials the paper's evaluation turns — machine size m,
// degree of replication R, and laxity scaling factor SF — skips a dial
// whose R rounds to the copies of a cell already run, and runs the full
// portfolio (tree-search, greedy, and partitioned members; see
// sched/registry.h) through exp::run_repeated on each cell. Per cell it
// ranks algorithms by mean deadline-hit ratio and applies the paper's
// two-tailed Welch difference-of-means protocol (0.01 level) between the
// winner and the runner-up, so "X wins this regime" is a statistical claim,
// not a point estimate. Writes the machine-readable grid to
// BENCH_TOURNAMENT.json (uploaded by the CI tournament job) so future PRs
// adding a portfolio member can diff who-wins-where against this one.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "db/placement.h"

namespace {

using namespace rtds;

/// The tournament roster: one spec per distinct portfolio behavior. Canonical
/// registry specs (bench_util.h make_algo), so each column of the output can
/// be replayed verbatim via `rtds_fuzz --algo <spec>` or rtds_cli.
const std::vector<std::string>& roster() {
  static const std::vector<std::string> specs = {
      "rt_sads",                        // paper's assignment-oriented search
      "d_cols",                         // paper's sequence-oriented search
      "edf_ff",                         // greedy EDF first-fit baseline
      "edf_bf",                         // greedy EDF best-fit baseline
      "myopic?window=5",                // bounded-lookahead baseline
      "packing",                        // partitioned EDF first-fit packing
      "packing?fit=best&order=lpt",     // partitioned LPT best-fit packing
      "multicrit?sort=min_slack&fit=worst",  // multi-criteria partitioner
  };
  return specs;
}

struct Dial {
  std::uint32_t workers;
  double replication;
  double scaling_factor;
  /// Fraction of transactions widened into gangs (width <= workers/2).
  double gang_fraction{0.0};

  /// Copies of each sub-database R buys on this machine: the parameter that
  /// takes effect, so two dials with the same copies are the same cell.
  [[nodiscard]] std::uint32_t copies() const {
    return db::Placement::copies_for(workers, replication);
  }
};

struct CellOutcome {
  Dial dial;
  std::vector<exp::Aggregate> results;  ///< one per roster entry, same order
  std::size_t winner{0};
  std::size_t runner_up{0};
  WelchResult welch;
};

std::vector<Dial> make_dials(bool quick) {
  const std::vector<std::uint32_t> ms = {4, 10};
  const std::vector<double> rs =
      quick ? std::vector<double>{0.1, 0.6} : std::vector<double>{0.1, 0.3, 0.6};
  const std::vector<double> sfs =
      quick ? std::vector<double>{0.8, 1.5} : std::vector<double>{0.8, 1.0, 1.5};
  std::vector<Dial> dials;
  for (const std::uint32_t m : ms) {
    for (const double r : rs) {
      for (const double sf : sfs) dials.push_back({m, r, sf});
    }
  }
  // Gang sweep: hold (R, SF) at the evaluation's center and turn the gang
  // dial. Multi-worker jobs shrink the effective machine and punish search
  // backtracking, so this is where the partitioned baselines get their shot
  // at RT-SADS.
  const std::vector<double> gs =
      quick ? std::vector<double>{0.5} : std::vector<double>{0.25, 0.5};
  for (const std::uint32_t m : ms) {
    for (const double g : gs) dials.push_back({m, 0.3, 1.0, g});
  }
  // Placement rounds R to whole copies, so at m=4 both R=0.1 and R=0.3 keep
  // one copy: a dial whose effective cell already ran is dropped.
  std::vector<Dial> distinct;
  for (const Dial& d : dials) {
    const auto same_cell = [&](const Dial& e) {
      return e.workers == d.workers && e.copies() == d.copies() &&
             e.scaling_factor == d.scaling_factor &&
             e.gang_fraction == d.gang_fraction;
    };
    if (std::none_of(distinct.begin(), distinct.end(), same_cell)) {
      distinct.push_back(d);
    }
  }
  return distinct;
}

std::string dial_name(const Dial& d) {
  std::ostringstream os;
  os << "m=" << d.workers << " R=" << exp::fmt(d.replication, 1)
     << " c=" << d.copies() << " SF=" << exp::fmt(d.scaling_factor, 1);
  if (d.gang_fraction > 0) os << " G=" << exp::fmt(d.gang_fraction, 2);
  return os.str();
}

CellOutcome run_cell(const Dial& dial, std::uint32_t reps,
                     std::uint32_t transactions) {
  exp::ExperimentConfig config;
  config.num_workers = dial.workers;
  config.replication_rate = dial.replication;
  config.scaling_factor = dial.scaling_factor;
  config.num_transactions = transactions;
  config.repetitions = reps;
  config.gang_fraction = dial.gang_fraction;
  config.gang_max_workers = std::max(2u, dial.workers / 2);

  CellOutcome out;
  out.dial = dial;
  for (const std::string& spec : roster()) {
    const auto algo = bench::make_algo(spec);
    out.results.push_back(exp::run_repeated(config, *algo));
  }
  // Rank by mean hit ratio; ties break toward the earlier roster entry so
  // the outcome is deterministic.
  std::vector<std::size_t> order(out.results.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return out.results[a].hit_ratio.mean() >
                            out.results[b].hit_ratio.mean();
                   });
  out.winner = order[0];
  out.runner_up = order[1];
  out.welch = exp::compare_hit_ratios(out.results[out.winner],
                                      out.results[out.runner_up]);
  return out;
}

void json_cell(std::ostream& os, const CellOutcome& cell) {
  os << "   {\"workers\": " << cell.dial.workers
     << ", \"replication\": " << exp::fmt(cell.dial.replication, 2)
     << ", \"copies\": " << cell.dial.copies()
     << ", \"scaling_factor\": " << exp::fmt(cell.dial.scaling_factor, 2)
     << ", \"gang_fraction\": " << exp::fmt(cell.dial.gang_fraction, 2)
     << ",\n    \"results\": [\n";
  for (std::size_t i = 0; i < cell.results.size(); ++i) {
    const exp::Aggregate& agg = cell.results[i];
    os << "     {\"algo\": \"" << roster()[i] << "\", \"hit_pct\": "
       << exp::fmt(agg.hit_ratio.mean() * 100.0, 2) << ", \"ci99_pct\": "
       << exp::fmt(confidence_interval(agg.hit_ratio) * 100.0, 2)
       << ", \"sched_ms\": " << exp::fmt(agg.sched_time_ms.mean(), 2) << "}"
       << (i + 1 < cell.results.size() ? ",\n" : "\n");
  }
  os << "    ],\n    \"winner\": \"" << roster()[cell.winner]
     << "\", \"runner_up\": \"" << roster()[cell.runner_up]
     << "\", \"welch_p\": " << exp::fmt(cell.welch.p_value, 6)
     << ", \"significant_at_001\": "
     << (cell.welch.significant(0.01) ? "true" : "false") << "}";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::uint32_t reps = 10;
  // 250 straddles the interesting boundary: small machines have slack for
  // tree search to exploit, while at m=10 the offered load makes scheduling
  // capacity bind and the cheap greedy heuristics take over. (Much higher
  // drives every cell into uniform overload; much lower saturates at 100%.)
  std::uint32_t transactions = 250;
  std::string out_path = "BENCH_TOURNAMENT.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;
    } else if (a == "--reps" && i + 1 < argc) {
      reps = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 0));
    } else if (a == "--transactions" && i + 1 < argc) {
      transactions =
          static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 0));
    } else if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_tournament [--quick] [--reps N] "
                   "[--transactions N] [--out PATH]\n";
      return 2;
    }
  }
  if (quick) {
    reps = std::min(reps, 3u);
    transactions = std::min(transactions, 200u);
  }

  bench::print_header(
      "Algorithm-portfolio tournament: who wins where",
      "evaluation dials of Sec. 5 (m, R, SF) plus a gang-fraction sweep, "
      "over the full registry portfolio",
      "search (rt_sads) wins where slack leaves room to backtrack; cheap "
      "greedy (edf_ff) takes over once scheduling capacity binds at m=10; "
      "gang-heavy cells give the partitioned packers their shot");

  const std::vector<Dial> dials = make_dials(quick);
  std::cout << "roster (" << roster().size() << " entrants):";
  for (const std::string& spec : roster()) std::cout << " " << spec;
  std::cout << "\ncells: " << dials.size()
            << " (c = copies of each sub-database), reps/cell: " << reps
            << ", transactions/run: " << transactions << "\n\n";

  std::cout << "cell                          | winner                       "
               "        | hit%  | runner-up                            "
               "| hit%  | p(Welch)\n"
            << "------------------------------+------------------------------"
               "--------+-------+--------------------------------------"
               "+-------+---------\n";

  std::map<std::string, std::uint32_t> wins;
  std::vector<CellOutcome> cells;
  for (const Dial& dial : dials) {
    CellOutcome cell = run_cell(dial, reps, transactions);
    const std::string& won = roster()[cell.winner];
    const std::string& second = roster()[cell.runner_up];
    ++wins[won];

    const auto pad = [](const std::string& s, std::size_t w) {
      std::cout << s;
      for (std::size_t i = s.size(); i < w; ++i) std::cout << ' ';
    };
    pad(dial_name(dial), 30);
    std::cout << "| ";
    pad(won, 37);
    std::cout << "| " << exp::fmt(cell.results[cell.winner].hit_ratio.mean() *
                                      100.0, 1)
              << " | ";
    pad(second, 37);
    std::cout << "| "
              << exp::fmt(cell.results[cell.runner_up].hit_ratio.mean() *
                              100.0, 1)
              << " | " << exp::fmt(cell.welch.p_value, 4)
              << (cell.welch.significant(0.01) ? " *" : "") << "\n";
    cells.push_back(std::move(cell));
  }

  std::cout << "\nwho-wins-where ('*' above = significant at the paper's "
               "0.01 level):\n";
  for (const std::string& spec : roster()) {
    const auto it = wins.find(spec);
    std::cout << "  " << spec << ": " << (it == wins.end() ? 0 : it->second)
              << " of " << cells.size() << " cells\n";
  }

  std::ostringstream json;
  json << "{\n  \"bench\": \"bench_tournament\",\n  \"mode\": \""
       << (quick ? "quick" : "full") << "\",\n  \"reps\": " << reps
       << ",\n  \"transactions\": " << transactions
       << ",\n  \"algorithms\": [";
  for (std::size_t i = 0; i < roster().size(); ++i) {
    json << "\"" << roster()[i] << "\""
         << (i + 1 < roster().size() ? ", " : "");
  }
  json << "],\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    json_cell(json, cells[i]);
    json << (i + 1 < cells.size() ? ",\n" : "\n");
  }
  json << "  ],\n  \"wins\": {";
  bool first = true;
  for (const std::string& spec : roster()) {
    const auto it = wins.find(spec);
    json << (first ? "" : ", ") << "\"" << spec
         << "\": " << (it == wins.end() ? 0 : it->second);
    first = false;
  }
  json << "}\n}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << json.str();
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
