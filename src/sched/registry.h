// String-keyed algorithm construction: the portfolio seam.
//
// The registry is the single construction path for every scheduler: the
// experiments, the fuzz harness, the bench binaries, the CLI, the examples
// and the tests all name an algorithm by one string surface, so a run is
// attributable and replayable by name:
//
//   auto algo = AlgorithmRegistry::builtin().make("d_cols?max_successors=8");
//   algo->name()  == "d_cols?max_successors=8"   // canonical spec
//
// A spec is `key` or `key?param=value&param=value`. Construction
// canonicalizes it: parameters equal to the entry's defaults are dropped,
// values are normalized (no leading zeros, declared enum spellings), and
// the surviving parameters keep the entry's declared order — so
// make(spec)->name() is a fixpoint: make(name)->name() == name. Unknown
// keys, unknown or duplicate parameters, and out-of-domain values all
// throw InvalidArgument (a replay token naming an algorithm must either
// reconstruct it exactly or fail loudly).
//
// Built-in entries (AlgorithmRegistry::builtin()):
//   rt_sads    assignment-oriented tree search (Sec. 4); params
//              cost=on|off (load-balance cost function),
//              order=min_end|index|min_comm (successor order when cost=off)
//   d_cols     sequence-oriented tree search (Sec. 5.2); params
//              max_successors=N (0 = unlimited pruning cap),
//              level_order=round_robin|least_loaded
//   edf_ff     EDF first-fit baseline: the assignment-oriented depth-first
//              search with one successor per level (first feasible
//              processor in index order), no cost function
//   edf_bf     greedy EDF best-fit baseline
//   myopic     Ramamritham-Stankovic window scheduler; param window=W
//   packing    first-fit/best-fit packing partitioned scheduler
//              (arXiv:1809.04355); params fit=first|best, order=edf|lpt
//   multicrit  multi-criteria partitioner (arXiv:1004.3715); params
//              sort=density|edf|min_slack|lpt, fit=first|best|worst|next
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sched/algorithm.h"

namespace rtds::sched {

/// Parsed `key?param=value&...` spec. Parameters keep their textual order;
/// parse() rejects syntactic garbage (empty key/param/value, duplicate
/// parameters, stray separators) but knows nothing about which keys or
/// parameters exist — that is the registry's job.
struct AlgorithmSpec {
  std::string key;
  std::vector<std::pair<std::string, std::string>> params;

  [[nodiscard]] static std::optional<AlgorithmSpec> parse(
      const std::string& text);
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] const std::string* find(const std::string& name) const;
};

/// Typed parameter accessor handed to entry factories. Reading a parameter
/// consumes it and, when the value differs from the declared default,
/// appends `name=value` (normalized) to the canonical spec — so the
/// canonical name falls out of the reads the factory performs, in the order
/// it performs them. Reads throw InvalidArgument on unparseable or
/// out-of-domain values; AlgorithmRegistry::make() throws afterwards if any
/// provided parameter was never consumed (unknown parameter).
class AlgorithmParams {
 public:
  explicit AlgorithmParams(AlgorithmSpec spec);

  /// Unsigned integer parameter.
  [[nodiscard]] std::uint32_t u32(const std::string& name,
                                  std::uint32_t default_value);

  /// Enumerated parameter: the value must be one of `allowed`;
  /// `allowed.front()` need not be the default. Returns the INDEX into
  /// `allowed` so factories switch on it without string compares.
  [[nodiscard]] std::size_t choice(const std::string& name,
                                   const std::string& default_value,
                                   const std::vector<std::string>& allowed);

  /// Canonical spec accumulated by the reads so far.
  [[nodiscard]] std::string canonical_name() const;

  /// Parameters provided in the spec but never read by the factory.
  [[nodiscard]] std::vector<std::string> unconsumed() const;

 private:
  AlgorithmSpec spec_;
  std::vector<bool> consumed_;
  std::vector<std::pair<std::string, std::string>> canonical_;

  [[nodiscard]] const std::string* consume(const std::string& name);
};

/// The string-keyed algorithm factory registry.
class AlgorithmRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<PhaseAlgorithm>(AlgorithmParams&)>;

  /// The process-wide registry holding every built-in portfolio member.
  [[nodiscard]] static const AlgorithmRegistry& builtin();

  AlgorithmRegistry() = default;

  /// Registers an entry. `summary` is a one-line human description used by
  /// listings (rtds_fuzz --list-algos, rtds_cli usage).
  void add(std::string key, std::string summary, Factory factory);

  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] std::vector<std::string> keys() const;  ///< sorted
  [[nodiscard]] const std::string& summary(const std::string& key) const;

  /// Parses, validates and builds `spec`. The returned algorithm's name()
  /// is the canonical spec. Throws InvalidArgument on malformed specs,
  /// unknown keys, unknown/duplicate parameters or out-of-domain values.
  [[nodiscard]] std::unique_ptr<PhaseAlgorithm> make(
      const std::string& spec) const;

  /// make() without construction: the canonical spec `spec` would produce,
  /// or nullopt when make() would throw. Cheap validation for arg parsing.
  [[nodiscard]] std::optional<std::string> canonicalize(
      const std::string& spec) const;

 private:
  struct Entry {
    std::string summary;
    Factory factory;
  };
  std::vector<std::pair<std::string, Entry>> entries_;

  [[nodiscard]] const Entry* find(const std::string& key) const;
};

}  // namespace rtds::sched
