// The paper's application (Sec. 5): real-time transaction scheduling over a
// partitioned, replicated, in-memory relational database.
//
// Builds the 10x1000x10 database, generates a burst of transactions with
// proportional deadlines, schedules them with RT-SADS and with D-COLS on a
// simulated 10-worker machine, prints the comparison, and then actually
// executes a few transactions against the database to show the query layer.
//
//   ./build/examples/distributed_db [num_transactions] [replication_pct]
#include <cstdlib>
#include <iostream>

#include "common/rng.h"
#include "db/placement.h"
#include "db/transaction.h"
#include "exp/table.h"
#include "machine/cluster.h"
#include "sched/backend.h"
#include "sched/pipeline.h"
#include "sched/quantum.h"
#include "sched/registry.h"
#include "sim/simulator.h"

int main(int argc, char** argv) {
  using namespace rtds;

  const std::uint32_t num_txns =
      argc > 1 ? std::uint32_t(std::atoi(argv[1])) : 1000;
  const double replication =
      argc > 2 ? std::atof(argv[2]) / 100.0 : 0.3;
  constexpr std::uint32_t kWorkers = 10;

  // --- database & workload --------------------------------------------------
  Xoshiro256ss rng(2026);
  db::DatabaseConfig db_cfg;  // paper defaults: 10 sub-dbs x 1000 x 10 attrs
  const db::GlobalDatabase database(db_cfg, rng);
  const db::Placement placement =
      db::Placement::rotation(db_cfg.num_subdbs, kWorkers, replication);

  db::TransactionWorkloadConfig txn_cfg;
  txn_cfg.num_transactions = num_txns;
  txn_cfg.scaling_factor = 1.0;  // tight deadlines
  const auto txns = db::generate_transactions(database, txn_cfg, rng);
  const auto workload = db::to_tasks(txns, database, placement, txn_cfg);

  std::cout << "database: " << db_cfg.num_subdbs << " sub-databases x "
            << db_cfg.records_per_subdb << " records x "
            << db_cfg.num_attributes << " attributes, replication "
            << replication * 100 << "% (" << placement.copies()
            << " copies each)\n"
            << "workload: " << num_txns
            << " read-only transactions, bursty arrival, deadlines = SF*10*"
               "estimated cost\n\n";

  // --- run both schedulers --------------------------------------------------
  exp::TextTable table({"scheduler", "hit%", "scheduled", "culled", "phases",
                        "vertices", "host time (ms)"});
  for (const char* spec : {"rt_sads", "d_cols"}) {
    const auto algo = sched::AlgorithmRegistry::builtin().make(spec);
    machine::Cluster cluster(
        kWorkers, machine::Interconnect::cut_through(kWorkers, msec(5)));
    sim::Simulator sim;
    const auto quantum =
        sched::make_self_adjusting_quantum(usec(100), msec(20));
    sched::PipelineConfig pipeline_cfg;
    pipeline_cfg.vertex_generation_cost = usec(2);
    const sched::PhasePipeline pipeline(*algo, *quantum, pipeline_cfg);
    sched::SimBackend backend(cluster, sim);
    const sched::RunMetrics m = pipeline.run(workload, backend);
    table.add_row({algo->name(), exp::fmt(m.hit_ratio() * 100, 1),
                   std::to_string(m.scheduled), std::to_string(m.culled),
                   std::to_string(m.phases),
                   std::to_string(m.vertices_generated),
                   exp::fmt(m.scheduling_time.millis(), 1)});
  }
  table.print(std::cout);

  // --- run a few transactions for real ---------------------------------------
  std::cout << "\nsample transaction executions (ground truth the cost "
               "estimator bounds):\n";
  for (std::uint32_t i = 0; i < 5 && i < txns.size(); ++i) {
    const db::Transaction& q = txns[i];
    const db::QueryResult r = database.execute(q);
    std::cout << "  txn " << q.id << ": sub-db " << q.subdb << ", "
              << q.predicates.size() << " predicate(s), "
              << (q.references_key() ? "indexed" : "full scan")
              << " -> checked " << r.checked << " tuples, matched "
              << r.matched << " (estimated worst case "
              << database.estimate_cost(q) / db_cfg.check_cost
              << " checks)\n";
  }
  return 0;
}
