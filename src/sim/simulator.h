// The simulated host clock.
//
// This is what stands in for the paper's Intel Paragon clock. The machine
// itself is analytic: workers drain FIFO queues of non-preemptable tasks,
// so machine::Cluster computes every start and end time when a schedule is
// delivered. What is left for the simulation to supply is the host's clock,
// which each scheduling phase moves forward by the time it spent
// (t_e = t_s + spent, Sec. 4). The clock is monotonic: it starts at zero
// and never goes backwards.
#pragma once

#include "common/error.h"
#include "common/time.h"

namespace rtds::sim {

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Moves the clock to `t`; advance_to(now()) is a no-op. Throws
  /// InvalidArgument when t < now().
  void advance_to(SimTime t) {
    RTDS_REQUIRE(t >= now_, "advance_to: target time in the past");
    now_ = t;
  }

 private:
  SimTime now_{SimTime::zero()};
};

}  // namespace rtds::sim
