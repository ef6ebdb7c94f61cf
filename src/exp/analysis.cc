#include "exp/analysis.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace rtds::exp {

std::string LatenessSummary::to_string() const {
  std::ostringstream os;
  os << "executed " << executed << " (hits " << hits << ", misses " << misses
     << ")";
  if (executed > 0) {
    os << ", margin mean " << margin_ms.mean() << "ms";
  }
  if (misses > 0) {
    os << ", tardiness mean " << tardiness_ms.mean() << "ms max "
       << tardiness_ms.max() << "ms";
  }
  return os.str();
}

LatenessSummary lateness_summary(
    const std::vector<machine::CompletionRecord>& log) {
  LatenessSummary out;
  for (const machine::CompletionRecord& rec : log) {
    ++out.executed;
    const double margin_ms = (rec.deadline - rec.end).millis();
    out.margin_ms.add(margin_ms);
    if (rec.met_deadline()) {
      ++out.hits;
    } else {
      ++out.misses;
      out.tardiness_ms.add(-margin_ms);
    }
  }
  return out;
}

double median_margin_ms(const std::vector<machine::CompletionRecord>& log) {
  RTDS_REQUIRE(!log.empty(), "median_margin_ms: empty log");
  std::vector<SimDuration> margins;
  margins.reserve(log.size());
  for (const machine::CompletionRecord& rec : log) {
    margins.push_back(rec.deadline - rec.end);
  }
  const auto median = margins.begin() + std::ptrdiff_t((log.size() - 1) / 2);
  std::nth_element(margins.begin(), median, margins.end());
  return median->millis();
}

BalanceSummary balance_summary(const machine::Cluster& cluster) {
  BalanceSummary out;
  std::vector<std::uint64_t> executed(cluster.num_workers(), 0);
  for (const machine::CompletionRecord& rec : cluster.log()) {
    ++executed[rec.worker];
  }
  for (std::uint32_t k = 0; k < cluster.num_workers(); ++k) {
    out.busy_ms.add(cluster.busy_time(k).millis());
    if (executed[k] == 0) ++out.idle_workers;
  }
  if (!out.busy_ms.empty() && out.busy_ms.max() > 0.0) {
    out.imbalance = (out.busy_ms.max() - out.busy_ms.min()) /
                    out.busy_ms.max();
  }
  return out;
}

}  // namespace rtds::exp
