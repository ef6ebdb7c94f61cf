#include "sched/registry.h"

#include <algorithm>
#include <charconv>

#include "common/error.h"
#include "sched/portfolio.h"
#include "search/engine.h"

namespace rtds::sched {

namespace {

bool valid_word(const std::string& s) {
  if (s.empty()) return false;
  for (const char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    c == '_';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------- spec ----

std::optional<AlgorithmSpec> AlgorithmSpec::parse(const std::string& text) {
  AlgorithmSpec spec;
  const std::size_t qmark = text.find('?');
  spec.key = text.substr(0, qmark);
  if (!valid_word(spec.key)) return std::nullopt;
  if (qmark == std::string::npos) return spec;

  // `key?` with nothing after it, `a=1&&b=2`, `a=`, `=1`, and a repeated
  // parameter name are all malformed.
  std::size_t pos = qmark + 1;
  while (pos <= text.size()) {
    std::size_t amp = text.find('&', pos);
    if (amp == std::string::npos) amp = text.size();
    const std::string item = text.substr(pos, amp - pos);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) return std::nullopt;
    const std::string name = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (!valid_word(name) || value.empty()) return std::nullopt;
    if (value.find('=') != std::string::npos) return std::nullopt;
    if (spec.find(name) != nullptr) return std::nullopt;
    spec.params.emplace_back(name, value);
    pos = amp + 1;
  }
  return spec;
}

std::string AlgorithmSpec::to_string() const {
  std::string out = key;
  char sep = '?';
  for (const auto& [name, value] : params) {
    out += sep;
    out += name;
    out += '=';
    out += value;
    sep = '&';
  }
  return out;
}

const std::string* AlgorithmSpec::find(const std::string& name) const {
  for (const auto& [n, v] : params) {
    if (n == name) return &v;
  }
  return nullptr;
}

// -------------------------------------------------------------- params ----

AlgorithmParams::AlgorithmParams(AlgorithmSpec spec)
    : spec_(std::move(spec)), consumed_(spec_.params.size(), false) {}

const std::string* AlgorithmParams::consume(const std::string& name) {
  for (std::size_t i = 0; i < spec_.params.size(); ++i) {
    if (spec_.params[i].first == name) {
      consumed_[i] = true;
      return &spec_.params[i].second;
    }
  }
  return nullptr;
}

std::uint32_t AlgorithmParams::u32(const std::string& name,
                                   std::uint32_t default_value) {
  const std::string* raw = consume(name);
  if (raw == nullptr) return default_value;
  std::uint32_t value = 0;
  const char* begin = raw->data();
  const char* end = begin + raw->size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  RTDS_REQUIRE(ec == std::errc{} && ptr == end,
               "algorithm spec '" + spec_.key + "': parameter '" + name +
                   "' wants an unsigned integer, got '" + *raw + "'");
  if (value != default_value) {
    canonical_.emplace_back(name, std::to_string(value));
  }
  return value;
}

std::size_t AlgorithmParams::choice(const std::string& name,
                                    const std::string& default_value,
                                    const std::vector<std::string>& allowed) {
  const std::string* raw = consume(name);
  const std::string& value = raw != nullptr ? *raw : default_value;
  const auto it = std::find(allowed.begin(), allowed.end(), value);
  if (it == allowed.end()) {
    std::string domain;
    for (const std::string& a : allowed) {
      if (!domain.empty()) domain += "|";
      domain += a;
    }
    RTDS_REQUIRE(false, "algorithm spec '" + spec_.key + "': parameter '" +
                            name + "' must be one of " + domain + ", got '" +
                            value + "'");
  }
  if (value != default_value) canonical_.emplace_back(name, value);
  return static_cast<std::size_t>(it - allowed.begin());
}

std::string AlgorithmParams::canonical_name() const {
  AlgorithmSpec canon;
  canon.key = spec_.key;
  canon.params = canonical_;
  return canon.to_string();
}

std::vector<std::string> AlgorithmParams::unconsumed() const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < spec_.params.size(); ++i) {
    if (!consumed_[i]) out.push_back(spec_.params[i].first);
  }
  return out;
}

// ------------------------------------------------------------ registry ----

void AlgorithmRegistry::add(std::string key, std::string summary,
                            Factory factory) {
  RTDS_REQUIRE(valid_word(key), "registry key must be [a-z0-9_]+: " + key);
  RTDS_REQUIRE(find(key) == nullptr, "duplicate registry key: " + key);
  entries_.emplace_back(std::move(key),
                        Entry{std::move(summary), std::move(factory)});
}

bool AlgorithmRegistry::contains(const std::string& key) const {
  return find(key) != nullptr;
}

std::vector<std::string> AlgorithmRegistry::keys() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(key);
  std::sort(out.begin(), out.end());
  return out;
}

const std::string& AlgorithmRegistry::summary(const std::string& key) const {
  const Entry* e = find(key);
  RTDS_REQUIRE(e != nullptr, "unknown algorithm key: " + key);
  return e->summary;
}

const AlgorithmRegistry::Entry* AlgorithmRegistry::find(
    const std::string& key) const {
  for (const auto& [k, entry] : entries_) {
    if (k == key) return &entry;
  }
  return nullptr;
}

std::unique_ptr<PhaseAlgorithm> AlgorithmRegistry::make(
    const std::string& spec) const {
  const auto parsed = AlgorithmSpec::parse(spec);
  RTDS_REQUIRE(parsed.has_value(), "malformed algorithm spec: '" + spec +
                                       "' (want key?param=value&...)");
  const Entry* entry = find(parsed->key);
  RTDS_REQUIRE(entry != nullptr,
               "unknown algorithm key '" + parsed->key + "' in spec '" +
                   spec + "'");
  AlgorithmParams params(*parsed);
  auto algorithm = entry->factory(params);
  const std::vector<std::string> leftover = params.unconsumed();
  RTDS_REQUIRE(leftover.empty(), "algorithm spec '" + spec +
                                     "': unknown parameter '" +
                                     (leftover.empty() ? "" : leftover[0]) +
                                     "'");
  return algorithm;
}

std::optional<std::string> AlgorithmRegistry::canonicalize(
    const std::string& spec) const {
  try {
    return make(spec)->name();
  } catch (const Error&) {
    return std::nullopt;
  }
}

// ------------------------------------------------------------ builtins ----

const AlgorithmRegistry& AlgorithmRegistry::builtin() {
  static const AlgorithmRegistry* const registry = [] {
    using search::LevelProcessorOrder;
    using search::ProcessorOrder;
    using search::Representation;
    using search::SearchConfig;
    using search::SearchStrategy;
    using search::TaskOrder;
    auto* r = new AlgorithmRegistry();

    r->add("rt_sads",
           "assignment-oriented tree search (Sec. 4); cost=on|off, "
           "order=min_end|index|min_comm",
           [](AlgorithmParams& p) -> std::unique_ptr<PhaseAlgorithm> {
             SearchConfig cfg;
             cfg.representation = Representation::kAssignmentOriented;
             cfg.task_order = TaskOrder::kEarliestDeadline;
             cfg.use_load_balance_cost =
                 p.choice("cost", "on", {"on", "off"}) == 0;
             switch (p.choice("order", "min_end",
                              {"min_end", "index", "min_comm"})) {
               case 0:
                 cfg.processor_order = ProcessorOrder::kMinEndOffset;
                 break;
               case 1:
                 cfg.processor_order = ProcessorOrder::kIndexOrder;
                 break;
               default:
                 cfg.processor_order = ProcessorOrder::kMinCommCost;
                 break;
             }
             return std::make_unique<TreeSearchAlgorithm>(p.canonical_name(),
                                                          cfg);
           });

    r->add("d_cols",
           "sequence-oriented tree search (Sec. 5.2); max_successors=N, "
           "level_order=round_robin|least_loaded",
           [](AlgorithmParams& p) -> std::unique_ptr<PhaseAlgorithm> {
             SearchConfig cfg;
             cfg.representation = Representation::kSequenceOriented;
             cfg.task_order = TaskOrder::kEarliestDeadline;
             cfg.use_load_balance_cost = false;
             cfg.max_successors = p.u32("max_successors", 0);
             cfg.level_processor_order =
                 p.choice("level_order", "round_robin",
                          {"round_robin", "least_loaded"}) == 0
                     ? LevelProcessorOrder::kRoundRobin
                     : LevelProcessorOrder::kLeastLoaded;
             return std::make_unique<TreeSearchAlgorithm>(p.canonical_name(),
                                                          cfg);
           });

    r->add("search",
           "generic tree search over the full config space; "
           "repr=assign|seq, strategy=dfs|best, cost=on|off, "
           "max_successors=N",
           [](AlgorithmParams& p) -> std::unique_ptr<PhaseAlgorithm> {
             SearchConfig cfg;
             cfg.representation =
                 p.choice("repr", "assign", {"assign", "seq"}) == 0
                     ? Representation::kAssignmentOriented
                     : Representation::kSequenceOriented;
             cfg.task_order = TaskOrder::kEarliestDeadline;
             cfg.strategy = p.choice("strategy", "dfs", {"dfs", "best"}) == 0
                                ? SearchStrategy::kDepthFirst
                                : SearchStrategy::kBestFirst;
             cfg.use_load_balance_cost =
                 p.choice("cost", "on", {"on", "off"}) == 0;
             cfg.max_successors = p.u32("max_successors", 0);
             return std::make_unique<TreeSearchAlgorithm>(p.canonical_name(),
                                                          cfg);
           });

    r->add("edf_ff", "greedy EDF first-fit baseline",
           [](AlgorithmParams& p) -> std::unique_ptr<PhaseAlgorithm> {
             return std::make_unique<GreedyAlgorithm>(
                 p.canonical_name(), GreedyKind::kEdfFirstFit);
           });

    r->add("edf_bf", "greedy EDF best-fit baseline",
           [](AlgorithmParams& p) -> std::unique_ptr<PhaseAlgorithm> {
             return std::make_unique<GreedyAlgorithm>(
                 p.canonical_name(), GreedyKind::kEdfBestFit);
           });

    r->add("myopic",
           "Ramamritham-Stankovic window scheduler; window=W (>= 1)",
           [](AlgorithmParams& p) -> std::unique_ptr<PhaseAlgorithm> {
             const std::uint32_t window = p.u32("window", 5);
             RTDS_REQUIRE(window >= 1,
                          "algorithm spec 'myopic': window must be >= 1");
             return std::make_unique<GreedyAlgorithm>(
                 p.canonical_name(), GreedyKind::kMyopic, window);
           });

    r->add("packing",
           "packing partitioned scheduler (arXiv:1809.04355); "
           "fit=first|best, order=edf|lpt",
           [](AlgorithmParams& p) -> std::unique_ptr<PhaseAlgorithm> {
             PartitionConfig cfg;
             cfg.fit = p.choice("fit", "first", {"first", "best"}) == 0
                           ? PartitionFit::kFirstFit
                           : PartitionFit::kBestFit;
             cfg.sort = p.choice("order", "edf", {"edf", "lpt"}) == 0
                            ? PartitionSort::kDeadline
                            : PartitionSort::kLpt;
             return std::make_unique<PartitionScheduler>(p.canonical_name(),
                                                         cfg);
           });

    r->add("multicrit",
           "multi-criteria partitioner (arXiv:1004.3715); "
           "sort=density|edf|min_slack|lpt, fit=first|best|worst|next",
           [](AlgorithmParams& p) -> std::unique_ptr<PhaseAlgorithm> {
             PartitionConfig cfg;
             switch (p.choice("sort", "density",
                              {"density", "edf", "min_slack", "lpt"})) {
               case 0:
                 cfg.sort = PartitionSort::kDensity;
                 break;
               case 1:
                 cfg.sort = PartitionSort::kDeadline;
                 break;
               case 2:
                 cfg.sort = PartitionSort::kMinSlack;
                 break;
               default:
                 cfg.sort = PartitionSort::kLpt;
                 break;
             }
             switch (p.choice("fit", "first",
                              {"first", "best", "worst", "next"})) {
               case 0:
                 cfg.fit = PartitionFit::kFirstFit;
                 break;
               case 1:
                 cfg.fit = PartitionFit::kBestFit;
                 break;
               case 2:
                 cfg.fit = PartitionFit::kWorstFit;
                 break;
               default:
                 cfg.fit = PartitionFit::kNextFit;
                 break;
             }
             return std::make_unique<PartitionScheduler>(p.canonical_name(),
                                                         cfg);
           });

    return r;
  }();
  return *registry;
}

}  // namespace rtds::sched
