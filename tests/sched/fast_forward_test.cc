// The pipeline's fast-forward of futile runs (docs/ARCHITECTURE.md,
// "Futile runs are fast-forwarded"). After a phase whose search placed
// nothing without exhausting its budget, run_core computes the phases that
// would repeat it instead of running them. These tests run every registry
// entrant twice, once free to fast-forward and once through
// PhaseByPhaseBackend, and require the two runs to be equal field for
// field; they check that every stop rule ends a run somewhere, and that
// every entrant's answer to futile_answer_persists() holds on random phase
// inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "machine/cluster.h"
#include "machine/interconnect.h"
#include "sched/algorithm.h"
#include "sched/backend.h"
#include "sched/pipeline.h"
#include "sched/quantum.h"
#include "sched/registry.h"
#include "sim/simulator.h"
#include "tasks/arrival_source.h"
#include "testing/fault_injection.h"
#include "testing/oracles.h"
#include "testing/phase_by_phase.h"

namespace rtds::sched {
namespace {

using tasks::AffinitySet;
using tasks::ProcessorId;
using testing::BackendRun;
using testing::CallCountingAlgorithm;
using testing::FaultInjectingBackend;
using testing::PhaseByPhaseBackend;

/// Every registry key, with the parameters that change what a search
/// evaluates, and every multicrit sort x fit corner.
std::vector<std::string> entrant_specs() {
  std::vector<std::string> specs = {
      "rt_sads",
      "rt_sads?cost=off&order=index",
      "rt_sads?cost=off&order=min_comm",
      "d_cols",
      "d_cols?max_successors=2",
      "d_cols?level_order=least_loaded",
      "search?strategy=best",
      "search?repr=seq&strategy=best&cost=off",
      "edf_ff",
      "edf_bf",
      "myopic",
      "myopic?window=1",
      "packing",
      "packing?fit=best",
      "packing?order=lpt",
      "packing?fit=best&order=lpt",
  };
  for (const char* sort : {"density", "edf", "min_slack", "lpt"}) {
    for (const char* fit : {"first", "best", "worst", "next"}) {
      specs.push_back(std::string("multicrit?sort=") + sort + "&fit=" + fit);
    }
  }
  return specs;
}

TEST(FastForwardTest, SpecsCoverEveryRegistryKey) {
  const std::vector<std::string> specs = entrant_specs();
  for (const std::string& key : AlgorithmRegistry::builtin().keys()) {
    EXPECT_TRUE(std::any_of(specs.begin(), specs.end(),
                            [&](const std::string& spec) {
                              return spec.rfind(key, 0) == 0;
                            }))
        << key;
  }
}

TEST(FastForwardTest, EveryRegistryEntrantDeclaresThatAFutileAnswerPersists) {
  for (const std::string& spec : entrant_specs()) {
    EXPECT_TRUE(
        AlgorithmRegistry::builtin().make(spec)->futile_answer_persists())
        << spec;
  }
}

/// Ablation: t + Q_s falls as the workers drain (Q_s = 2 Min_Load), which
/// neither built-in policy does. The fast-forward must stop rather than
/// skip a phase delivered earlier than the futile one.
class FallingDeliveryQuantum final : public QuantumPolicy {
 public:
  [[nodiscard]] SimDuration allocate(SimDuration min_slack,
                                     SimDuration min_load) const override {
    return clamp_duration(min_load * 2 + min_slack / 8, usec(300), msec(20));
  }
  [[nodiscard]] std::string name() const override { return "falling"; }
};

/// The shape of one pipeline run.
struct Case {
  std::uint64_t seed{0};
  std::uint32_t workers{4};
  bool mesh{false};
  bool gangs{false};
  bool start_offsets{false};
  std::uint32_t refusal_period{0};  ///< 0: no injected refusals
  /// Close to the quantum, the budget falls below a futile search's charge
  /// as Min_Slack shrinks: the budget stop.
  SimDuration vertex_cost{usec(10)};
  bool open{false};
};

std::string describe(const Case& c) {
  return "seed " + std::to_string(c.seed) + " m=" +
         std::to_string(c.workers) + (c.mesh ? " mesh" : "") +
         (c.gangs ? " gangs" : "") + (c.start_offsets ? " offsets" : "") +
         " refuse/" + std::to_string(c.refusal_period) + " vcost " +
         std::to_string(c.vertex_cost.us) + "us" +
         (c.open ? " open" : " closed");
}

/// Bursts of tasks separated by gaps, with laxities from hopeless to
/// generous: workers saturate, so searches go futile, and tasks are culled.
std::vector<Task> make_workload(const Case& c) {
  Xoshiro256ss rng(c.seed);
  std::vector<Task> tasks;
  SimTime t = SimTime::zero();
  while (tasks.size() < 120) {
    t += usec(rng.uniform_int(200, 6000));
    const auto burst = rng.uniform_int(1, 20);
    for (std::int64_t b = 0; b < burst; ++b) {
      t += usec(rng.uniform_int(0, 50));
      Task task;
      task.id = static_cast<tasks::TaskId>(tasks.size());
      task.arrival = t;
      task.processing = usec(rng.uniform_int(200, 3000));
      task.deadline = t + task.processing + usec(rng.uniform_int(0, 9000));
      if (c.start_offsets && rng.bernoulli(0.3)) {
        task.earliest_start = t + usec(rng.uniform_int(0, 5000));
      }
      if (rng.bernoulli(0.3)) {
        task.affinity = AffinitySet::all(c.workers);
      } else {
        task.affinity.add(static_cast<ProcessorId>(
            rng.uniform_int(0, c.workers - 1)));
      }
      if (c.gangs && c.workers >= 2 && rng.bernoulli(0.25)) {
        task.workers_required =
            static_cast<std::uint32_t>(rng.uniform_int(2, c.workers));
      }
      tasks.push_back(task);
    }
  }
  return tasks;
}

/// Records each phase, and whether the algorithm was called for it.
class SearchedPhases final : public PhaseObserver {
 public:
  explicit SearchedPhases(const CallCountingAlgorithm& algorithm)
      : algorithm_(algorithm) {}

  void on_phase(const PhaseRecord& record) override {
    records.push_back(record);
    searched.push_back(algorithm_.calls() != seen_);
    seen_ = algorithm_.calls();
  }

  std::vector<PhaseRecord> records;
  std::vector<bool> searched;

 private:
  const CallCountingAlgorithm& algorithm_;
  std::uint64_t seen_{0};
};

/// One run of `c`, fast-forwarding unless `phase_by_phase`.
BackendRun run_case(const Case& c, const PhaseAlgorithm& algorithm,
                    const QuantumPolicy& quantum,
                    const std::vector<Task>& workload, bool phase_by_phase,
                    std::vector<bool>* searched = nullptr) {
  machine::Cluster cluster(
      c.workers, c.mesh ? machine::Interconnect::mesh(c.workers, usec(700))
                        : machine::Interconnect::cut_through(c.workers,
                                                             msec(1)));
  sim::Simulator simulator;
  SimBackend sim_backend(cluster, simulator);
  FaultInjectingBackend faults(sim_backend, c.refusal_period);
  PhaseByPhaseBackend reference(faults);
  ExecutionBackend& backend =
      phase_by_phase ? static_cast<ExecutionBackend&>(reference) : faults;
  const CallCountingAlgorithm counted(algorithm);
  SearchedPhases observer(counted);
  PipelineConfig config;
  config.vertex_generation_cost = c.vertex_cost;
  config.max_delivery_attempts = 3;
  const PhasePipeline pipeline(counted, quantum, config);
  TaskLedger ledger;
  BackendRun run;
  run.name = phase_by_phase ? "phase-by-phase" : "fast-forward";
  if (c.open) {
    tasks::VectorArrivalSource source(workload);
    StreamOptions options;
    options.max_pending = 24;
    StreamStats stats;
    run.metrics =
        pipeline.run_stream(source, backend, options, &stats, &observer,
                            &ledger);
    run.latency = stats.schedule_latency;
  } else {
    run.metrics = pipeline.run(workload, backend, &observer, &ledger);
  }
  run.ledger = ledger.counts();
  run.phases = std::move(observer.records);
  if (searched != nullptr) *searched = std::move(observer.searched);
  return run;
}

/// Why each futile run ended: what the next searched phase saw.
struct StopKinds {
  std::uint64_t arrival{0};
  std::uint64_t cull{0};
  std::uint64_t budget{0};
  std::uint64_t other{0};  ///< an earliest start passed, or the run ended
  std::uint64_t skipped{0};
};

void count_stops(const BackendRun& run, const std::vector<bool>& searched,
                 StopKinds& kinds) {
  const std::vector<PhaseRecord>& phases = run.phases;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (!searched[i]) {
      ++kinds.skipped;
      continue;
    }
    const PhaseRecord& futile = phases[i];
    if (futile.scheduled != 0 || futile.search.budget_exhausted) continue;
    std::size_t j = i + 1;
    while (j < phases.size() && !searched[j]) ++j;
    if (j == phases.size()) {
      ++kinds.other;
      continue;
    }
    const PhaseRecord& next = phases[j];
    if (next.arrivals + next.admission_rejected > 0) {
      ++kinds.arrival;
    } else if (next.culled > 0) {
      ++kinds.cull;
    } else if (next.vertex_budget < futile.search.vertices_generated) {
      ++kinds.budget;
    } else {
      ++kinds.other;
    }
  }
}

TEST(FastForwardTest, EveryEntrantMatchesThePhaseByPhaseLoop) {
  std::vector<Case> cases;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Case c;
    c.seed = seed;
    c.workers = static_cast<std::uint32_t>(2 + seed % 4);
    c.mesh = seed % 3 == 0;
    c.gangs = seed % 4 == 1;
    c.start_offsets = seed % 2 == 0;
    c.refusal_period = seed % 5 == 2 ? 3 : 0;
    c.vertex_cost = usec(seed % 3 == 0 ? 10 : seed % 3 == 1 ? 90 : 250);
    for (const bool open : {false, true}) {
      c.open = open;
      cases.push_back(c);
    }
  }
  const auto fixed = make_fixed_quantum(msec(2));
  const auto adjusting = make_self_adjusting_quantum(usec(500), msec(20));
  const FallingDeliveryQuantum falling;
  const QuantumPolicy* policies[] = {fixed.get(), adjusting.get(), &falling};

  StopKinds kinds;
  std::uint64_t phases = 0;
  for (const std::string& spec : entrant_specs()) {
    const auto algorithm = AlgorithmRegistry::builtin().make(spec);
    for (const Case& c : cases) {
      const std::vector<Task> workload = make_workload(c);
      for (const QuantumPolicy* quantum : policies) {
        SCOPED_TRACE(spec + " " + quantum->name() + " " + describe(c));
        std::vector<bool> searched;
        const BackendRun run =
            run_case(c, *algorithm, *quantum, workload, false, &searched);
        const BackendRun reference =
            run_case(c, *algorithm, *quantum, workload, true);
        std::vector<std::string> violations;
        testing::oracle_fast_forward_parity(run, reference, violations);
        ASSERT_TRUE(violations.empty()) << violations.front();
        count_stops(run, searched, kinds);
        phases += run.metrics.phases;
      }
    }
  }
  RecordProperty("phases", std::to_string(phases));
  RecordProperty("skipped", std::to_string(kinds.skipped));
  RecordProperty("stops_arrival", std::to_string(kinds.arrival));
  RecordProperty("stops_cull", std::to_string(kinds.cull));
  RecordProperty("stops_budget", std::to_string(kinds.budget));
  RecordProperty("stops_other", std::to_string(kinds.other));
  // Many phases are skipped, and every stop rule ended some futile run.
  EXPECT_GT(kinds.skipped, phases / 10);
  EXPECT_GT(kinds.arrival, 0u);
  EXPECT_GT(kinds.cull, 0u);
  EXPECT_GT(kinds.budget, 0u);
}

TEST(FastForwardTest, LeastLoadedLevelWithoutSkippingIsNeverSkipped) {
  // The one config whose root candidates the loads choose: a
  // sequence-oriented search that tries only the least-loaded worker.
  // Worker 0 is tried first and fails on the comm cost; once worker 0 is
  // the busier one, worker 1 is tried and fits, although no A_k is
  // earlier. So the config answers no, and the pipeline skips nothing.
  search::SearchConfig cfg;
  cfg.representation = search::Representation::kSequenceOriented;
  cfg.level_processor_order = search::LevelProcessorOrder::kLeastLoaded;
  cfg.skip_saturated_processors = false;
  const TreeSearchAlgorithm algorithm("least_loaded_strict", cfg);
  EXPECT_FALSE(algorithm.futile_answer_persists());

  const auto net = machine::Interconnect::cut_through(2, msec(5));
  const SimTime delivery = SimTime::zero() + msec(1);
  std::vector<Task> batch(1);
  batch[0].processing = msec(1);
  batch[0].deadline = delivery + msec(3);
  batch[0].affinity = AffinitySet::single(1);
  const SearchResult futile = algorithm.schedule_phase(
      batch, {SimDuration::zero(), usec(1500)}, delivery, net, 100);
  ASSERT_TRUE(futile.schedule.empty());
  ASSERT_FALSE(futile.stats.budget_exhausted);
  const SearchResult placed = algorithm.schedule_phase(
      batch, {msec(2), usec(1500)}, delivery, net, 100);
  ASSERT_EQ(placed.schedule.size(), 1u);
  EXPECT_EQ(placed.schedule[0].worker, 1u);

  Case c;
  c.seed = 3;
  const auto quantum = make_self_adjusting_quantum(usec(500), msec(20));
  const std::vector<Task> workload = make_workload(c);
  std::vector<bool> searched;
  const BackendRun run =
      run_case(c, algorithm, *quantum, workload, false, &searched);
  const BackendRun reference = run_case(c, algorithm, *quantum, workload, true);
  std::vector<std::string> violations;
  testing::oracle_fast_forward_parity(run, reference, violations);
  EXPECT_TRUE(violations.empty()) << violations.front();
  EXPECT_EQ(std::count(searched.begin(), searched.end(), false), 0);
  EXPECT_GT(run.metrics.dead_ends, 0u);
}

/// One schedule_phase input.
struct PhaseInput {
  std::vector<Task> batch;
  std::vector<SimDuration> base_loads;
  SimTime delivery{SimTime::zero()};
  machine::Interconnect net =
      machine::Interconnect::cut_through(1, SimDuration::zero());
};

/// Random phase input: tight to hopeless deadlines, start offsets, narrow
/// affinities, gangs (some wider than the machine), uneven loads, and both
/// routing models.
PhaseInput random_phase(Xoshiro256ss& rng) {
  PhaseInput in;
  const auto m = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
  const SimDuration comm = usec(rng.uniform_int(0, 6000));
  in.net = rng.bernoulli(0.5) ? machine::Interconnect::mesh(m, comm)
                              : machine::Interconnect::cut_through(m, comm);
  in.delivery = SimTime::zero() + usec(rng.uniform_int(0, 20000));
  const auto n = static_cast<std::uint32_t>(rng.uniform_int(1, 24));
  in.batch.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Task& t = in.batch[i];
    t.id = i;
    t.processing = usec(rng.uniform_int(100, 10000));
    t.deadline = SimTime::zero() + usec(rng.uniform_int(500, 90000));
    if (rng.bernoulli(0.3)) {
      t.earliest_start = SimTime::zero() + usec(rng.uniform_int(0, 40000));
    }
    if (rng.bernoulli(0.25)) {
      t.affinity = AffinitySet::all(m);
    } else {
      t.affinity.add(static_cast<ProcessorId>(rng.uniform_int(0, m - 1)));
    }
    if (m >= 2 && rng.bernoulli(0.25)) {
      t.workers_required =
          static_cast<std::uint32_t>(rng.uniform_int(2, m + 1));
    }
  }
  in.base_loads.resize(m);
  for (SimDuration& load : in.base_loads) {
    load = rng.bernoulli(0.5) ? SimDuration::zero()
                              : usec(rng.uniform_int(0, 15000));
  }
  return in;
}

TEST(FastForwardTest, EmptyAnswersPersistForEveryEntrant) {
  // The property behind futile_answer_persists(): an empty, unexhausted
  // answer at (D, A) stays empty, with equal stats, at any D' >= D with
  // every A'_k >= A_k (A_k = D + base_loads[k]) and a budget of at least
  // the recorded vertices. The futile inputs are random phases whose loads
  // are lifted by the smallest step that leaves nothing placeable.
  constexpr int kPhases = 150;
  constexpr int kFollowUps = 8;
  std::uint64_t total_checks = 0;
  for (const std::string& spec : entrant_specs()) {
    SCOPED_TRACE(spec);
    const auto algorithm = AlgorithmRegistry::builtin().make(spec);
    Xoshiro256ss rng(0xFA57F0);
    std::uint64_t futile_inputs = 0;
    for (int p = 0; p < kPhases; ++p) {
      PhaseInput in = random_phase(rng);
      const std::uint64_t generous =
          3 * std::uint64_t{in.net.num_workers()} * in.batch.size() + 10;
      std::optional<SearchResult> futile;
      const std::vector<SimDuration> loads = in.base_loads;
      for (std::int64_t lift = 0; lift <= 512000;
           lift = std::max<std::int64_t>(1000, 2 * lift)) {
        for (std::size_t k = 0; k < loads.size(); ++k) {
          in.base_loads[k] = loads[k] + usec(lift);
        }
        SearchResult r = algorithm->schedule_phase(
            in.batch, in.base_loads, in.delivery, in.net, generous);
        if (r.schedule.empty() && !r.stats.budget_exhausted) {
          futile = std::move(r);
          break;
        }
      }
      if (!futile) continue;
      ++futile_inputs;
      const std::uint64_t vertices = futile->stats.vertices_generated;
      for (int f = 0; f < kFollowUps; ++f) {
        const SimDuration shift = usec(rng.uniform_int(0, 5000));
        std::vector<SimDuration> later = in.base_loads;
        for (SimDuration& load : later) {
          // Drains by at most `shift`, so A_k never moves earlier.
          const SimDuration grow =
              rng.bernoulli(0.5) ? SimDuration::zero()
                                 : usec(rng.uniform_int(0, 3000));
          load = max_duration(SimDuration::zero(), load - shift + grow);
        }
        const std::uint64_t budget =
            vertices + std::uint64_t(rng.uniform_int(0, 2) == 0
                                         ? 0
                                         : rng.uniform_int(1, 1000));
        const SearchResult again = algorithm->schedule_phase(
            in.batch, later, in.delivery + shift, in.net, budget);
        ASSERT_TRUE(again.schedule.empty()) << "phase " << p;
        ASSERT_EQ(again.stats, futile->stats) << "phase " << p;
        ++total_checks;
      }
    }
    EXPECT_GT(futile_inputs, kPhases / 2);
  }
  EXPECT_GT(total_checks, 10000u);
}

}  // namespace
}  // namespace rtds::sched
