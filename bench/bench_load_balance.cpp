// EXT-BALANCE — Load balance behind the compliance numbers.
//
// Sec. 3 predicts that a pruned/budgeted sequence-oriented search
// "results in assignment of tasks only to a fraction of the processors...
// many processors remain idle while others are heavily loaded". This bench
// measures that directly on the Figure-5 headline cell: per-worker busy
// time spread, the imbalance ratio (max-min)/max, idle workers, and the
// deadline-margin distribution of the executed tasks.
#include <iostream>

#include "bench_util.h"
#include "common/rng.h"
#include "db/placement.h"
#include "db/transaction.h"
#include "exp/analysis.h"
#include "exp/table.h"
#include "machine/cluster.h"
#include "sched/backend.h"
#include "sched/pipeline.h"
#include "sim/simulator.h"

int main() {
  using namespace rtds;
  using namespace rtds::bench;

  print_header("EXT-BALANCE — worker load balance and deadline margins",
               "quantifies Sec. 3's idle-processors claim (m=10, R=30%, SF=1)",
               "RT-SADS spreads load evenly; D-COLS concentrates it");

  exp::ExperimentConfig cfg;
  cfg.num_workers = 10;
  cfg.replication_rate = 0.3;
  cfg.scaling_factor = 1.0;
  cfg.num_transactions = 1000;

  exp::TextTable table({"scheduler", "hit%", "busy mean (ms)",
                        "busy min..max (ms)", "imbalance", "idle workers",
                        "p50 margin (ms)"});
  for (const char* spec : {"rt_sads", "d_cols", "edf_bf"}) {
    const auto algo = make_algo(spec);
    Xoshiro256ss rng(bench::bench_seed(cfg.base_seed, "load-balance", 0));
    const db::GlobalDatabase database(cfg.database, rng);
    const db::Placement placement = db::Placement::rotation(
        cfg.database.num_subdbs, cfg.num_workers, cfg.replication_rate);
    db::TransactionWorkloadConfig txn_cfg;
    txn_cfg.num_transactions = cfg.num_transactions;
    txn_cfg.scaling_factor = cfg.scaling_factor;
    const auto txns = db::generate_transactions(database, txn_cfg, rng);
    const auto workload = db::to_tasks(txns, database, placement, txn_cfg);

    machine::Cluster cluster(
        cfg.num_workers,
        machine::Interconnect::cut_through(cfg.num_workers, cfg.comm_cost),
        machine::ReclaimMode::kWorstCase, machine::CompletionLog::kKeep);
    sim::Simulator sim;
    const auto quantum = cfg.make_quantum();
    sched::PipelineConfig dc;
    dc.vertex_generation_cost = cfg.vertex_cost;
    dc.phase_overhead = cfg.phase_overhead;
    const sched::PhasePipeline pipeline(*algo, *quantum, dc);
    sched::SimBackend backend(cluster, sim);
    const sched::RunMetrics m = pipeline.run(workload, backend);

    const exp::BalanceSummary bal = exp::balance_summary(cluster);
    table.add_row(
        {algo->name(), exp::fmt(m.hit_ratio() * 100, 1),
         exp::fmt(bal.busy_ms.mean(), 1),
         exp::fmt(bal.busy_ms.min(), 1) + ".." + exp::fmt(bal.busy_ms.max(), 1),
         exp::fmt(bal.imbalance, 2), std::to_string(bal.idle_workers),
         exp::fmt(exp::median_margin_ms(cluster.log()), 1)});
  }
  table.print(std::cout);
  std::cout << "\nCSV:\n";
  table.print_csv(std::cout);
  return 0;
}
