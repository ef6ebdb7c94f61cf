// Fuzz scenarios: the seed-driven input domain of the stress subsystem.
//
// A Scenario is the COMPLETE description of one adversarial run — workload
// shape (count, arrival burstiness, processing spread, affinity, laxity/SF,
// start-time offsets, reclaimable slack), machine shape (workers, shards,
// interconnect cost), pipeline knobs (vertex cost, phase overhead, delivery
// budget, backpressure), quantum policy, algorithm under test, and the
// fault-injection dials (deterministic delivery refusal, tiny threaded
// mailboxes). Every field is an integer so a scenario serializes exactly:
// encode_token() emits a one-line replay token and decode_token() restores
// the scenario bit-for-bit, which is what makes any CI fuzz failure
// reproducible with `rtds_fuzz --replay <token>`.
//
// generate_scenario(base_seed, index) draws a scenario from the fuzz
// distribution — deterministic in (base_seed, index) via the common/rng
// substream helpers, so the CI sweep is itself a pure function of one seed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "tasks/arrival_source.h"
#include "tasks/task.h"
#include "tasks/workload.h"

namespace rtds::testing {

/// Arrival pattern codes (mirrors tasks::ArrivalPattern; integral so the
/// replay token stays a flat list of numbers).
enum : std::uint32_t {
  kArrivalBursty = 0,
  kArrivalPoisson = 1,
  kArrivalPeriodicBurst = 2,
};

/// Open-arrival codes (Scenario::open_arrival): 0 keeps the classic closed
/// run; anything else replaces the workload vector with a streaming
/// ArrivalSource of that shape, driven through PhasePipeline::run_stream.
enum : std::uint32_t {
  kOpenClosed = 0,
  kOpenPoisson = 1,
  kOpenOnOff = 2,
  kOpenSporadic = 3,
  /// Periodic release train from release_period_us / release_jitter_us
  /// (NOT the stream_* gap fields, whose ranges could violate the
  /// jitter <= period contract).
  kOpenPeriodic = 4,
};

/// One complete fuzz case. Defaults form a small valid scenario; the
/// generator overwrites every field. Durations in integer microseconds,
/// ratios in permille / centi so the token encoding is exact; the one
/// string field (the algorithm spec) is hex-encoded in the token.
struct Scenario {
  std::uint64_t seed{1};  ///< workload randomness (independent substream)

  // -- machine ---------------------------------------------------------------
  std::uint32_t workers{4};
  std::uint32_t num_shards{1};  ///< divides workers; >1 adds a sharded run
  std::int64_t comm_cost_us{2000};
  std::uint32_t reclaim{0};  ///< 1 = ReclaimMode::kReclaim

  // -- workload --------------------------------------------------------------
  std::uint32_t num_tasks{80};
  std::uint32_t arrival_kind{kArrivalBursty};
  std::int64_t mean_interarrival_us{300};
  std::uint32_t burst_size{8};
  std::int64_t burst_interval_us{5000};
  std::int64_t processing_min_us{200};
  std::int64_t processing_max_us{2000};
  std::uint32_t affinity_permille{500};
  std::uint32_t laxity_min_centi{300};  ///< laxity = centi / 100 (SF sweeps)
  std::uint32_t laxity_max_centi{800};
  std::int64_t max_start_offset_us{0};
  std::uint32_t actual_fraction_min_permille{1000};
  std::uint32_t actual_fraction_max_permille{1000};

  // -- pipeline --------------------------------------------------------------
  std::int64_t vertex_cost_us{10};
  std::int64_t phase_overhead_us{50};
  std::uint32_t max_delivery_attempts{8};
  std::int64_t backpressure_us{200};

  // -- quantum policy --------------------------------------------------------
  std::uint32_t quantum_kind{0};  ///< 0 self-adjusting, 1 fixed
  std::int64_t min_quantum_us{200};
  std::int64_t max_quantum_us{10000};
  std::int64_t fixed_quantum_us{2000};

  // -- algorithm -------------------------------------------------------------
  /// Registry spec of the algorithm under test (sched/registry.h). Any
  /// portfolio member can be fuzzed; the oracles (correction theorem,
  /// conservation, schedule validity, parity) hold for all of them.
  std::string algo_spec{"rt_sads"};

  // -- fault injection -------------------------------------------------------
  /// Deterministically refuse every Nth delivered assignment (0 = off).
  /// Works on every backend via FaultInjectingBackend, so the readmission /
  /// rejection / backpressure machinery is exercised even on the DES.
  std::uint32_t refusal_period{0};
  std::uint32_t mailbox_capacity{64};  ///< threaded ready-queue depth
  std::uint32_t delivery_retries{1};   ///< threaded push retries when full

  // -- open arrivals ---------------------------------------------------------
  /// kOpenClosed, or the streaming source shape (kOpenPoisson / kOpenOnOff /
  /// kOpenSporadic). Open scenarios run the same `num_tasks` task bodies
  /// through run_stream instead of run; the oracle suite applies unchanged.
  std::uint32_t open_arrival{kOpenClosed};
  std::int64_t stream_mean_gap_us{300};  ///< Poisson mean / ON gap / sporadic extra
  std::int64_t stream_min_gap_us{100};   ///< sporadic minimum inter-arrival
  std::uint32_t stream_burst_len{6};     ///< ON-OFF tasks per burst
  std::int64_t stream_off_us{3000};      ///< ON-OFF silence between bursts
  /// StreamOptions::max_pending admission bound (0 = no admission control).
  std::uint32_t max_pending{0};

  // -- task models (rtds4) ---------------------------------------------------
  /// Gang/moldable jobs: each task is a gang with probability
  /// gang_permille/1000, width uniform in [2, gang_max_workers]. Gang
  /// scenarios are single-shard by construction (a gang wider than a shard
  /// could never be placed).
  std::uint32_t gang_permille{0};
  std::uint32_t gang_max_workers{2};
  /// Periodic releases: each logical task re-releases num_releases times
  /// every release_period_us with fresh deadlines (closed runs), and
  /// kOpenPeriodic streams release trains of this period with per-release
  /// jitter uniform in [0, release_jitter_us] (jitter <= period).
  std::int64_t release_period_us{0};
  std::uint32_t num_releases{1};
  std::int64_t release_jitter_us{0};

  // -- capacity (rtds5) ------------------------------------------------------
  /// Big-batch capacity dial: 1 marks a scenario drawn from (or forced
  /// into) the capacity profile — one closed burst of 65536..200000 tasks,
  /// past any 16-bit depth, through the search (DES only, single shard, no
  /// gangs/releases/faults, generous laxity so the batch is schedulable).
  /// The flag itself is informational; the profile lives in the field
  /// overrides apply_big_batch_profile() makes.
  std::uint32_t big_batch{0};

  // -- harness shape ---------------------------------------------------------
  std::uint32_t run_threaded{1};
  /// Parity-eligible construction: bursty arrivals, laxity far beyond
  /// wall-clock jitter, no fault injection, roomy mailboxes — the regime in
  /// which the threaded backend must agree with the DES on scheduled /
  /// culled / hit counts (see docs/FUZZING.md).
  std::uint32_t parity_class{0};

  bool operator==(const Scenario&) const = default;

  [[nodiscard]] tasks::WorkloadConfig workload_config() const;
  [[nodiscard]] std::string to_string() const;
};

/// Materializes the scenario's workload (deterministic in scenario.seed).
std::vector<tasks::Task> make_workload(const Scenario& scenario);

/// Builds the scenario's streaming source (deterministic in scenario.seed;
/// every call returns an identical task stream). Requires an open scenario.
std::unique_ptr<tasks::ArrivalSource> make_stream_source(
    const Scenario& scenario);

/// The full task stream an open scenario will emit, sorted by arrival —
/// for oracles (schedule validity) that need the offered task population.
std::vector<tasks::Task> make_stream_tasks(const Scenario& scenario);

/// Draws scenario `index` of the sweep rooted at `base_seed`.
Scenario generate_scenario(std::uint64_t base_seed, std::uint64_t index);

/// Reshapes `s` into the big-batch capacity profile (Scenario::big_batch):
/// one closed burst of 65536..200000 single-width tasks, DES only, generous
/// laxity, a large quantum, and a search-family algorithm — the fuzz-side
/// regression for the lifted 65535-task cap. Used by the generator's
/// capacity slice and by `rtds_fuzz --big-batch`; draws come from `rng`.
void apply_big_batch_profile(Scenario& s, Xoshiro256ss& rng);

/// One-line replay token ("rtds5.<fields>.c<checksum>"; integer fields are
/// decimal, string fields are "x"-prefixed lowercase hex bytes).
std::string encode_token(const Scenario& scenario);

/// Parses a replay token; nullopt on malformed input, wrong version or
/// checksum mismatch.
std::optional<Scenario> decode_token(const std::string& token);

}  // namespace rtds::testing
