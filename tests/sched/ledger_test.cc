#include "sched/ledger.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace rtds::sched {
namespace {

TEST(TaskLedgerTest, FullLifecycleToDeadlineHit) {
  TaskLedger ledger;
  ledger.arrive(1);
  EXPECT_EQ(ledger.state(1), TaskState::kArrived);
  ledger.admit(1);
  ledger.schedule(1);
  ledger.deliver(1);
  EXPECT_EQ(ledger.state(1), TaskState::kDelivered);
  ledger.execute(1, /*hit=*/true);
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_TRUE(ledger.counts().conserved());
  EXPECT_EQ(ledger.counts().deadline_hits, 1u);
}

TEST(TaskLedgerTest, DropReturnsTaskToBatchedForAnotherRound) {
  TaskLedger ledger;
  ledger.arrive(7);
  ledger.admit(7);
  ledger.schedule(7);
  ledger.drop(7);  // delivery refused: readmitted
  EXPECT_EQ(ledger.state(7), TaskState::kBatched);
  ledger.schedule(7);
  ledger.deliver(7);
  ledger.execute(7, /*hit=*/false);
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_TRUE(ledger.counts().conserved());
  EXPECT_EQ(ledger.counts().exec_misses, 1u);
  EXPECT_EQ(ledger.counts().drop_events, 1u);
  EXPECT_EQ(ledger.counts().schedule_events, 2u);
}

TEST(TaskLedgerTest, RefusalCountRisesOnEachDropAndSurvivesReschedule) {
  TaskLedger ledger;
  ledger.arrive(4);
  ledger.admit(4);
  ledger.arrive(5);
  ledger.admit(5);
  EXPECT_EQ(ledger.refusals(4), 0u);
  for (std::uint32_t refused = 1; refused <= 3; ++refused) {
    ledger.schedule(4);
    EXPECT_EQ(ledger.refusals(4), refused - 1);
    ledger.drop(4);
    EXPECT_EQ(ledger.refusals(4), refused);
  }
  // Re-scheduling and delivering keep the count; other tasks have their own.
  ledger.schedule(4);
  ledger.deliver(4);
  EXPECT_EQ(ledger.refusals(4), 3u);
  EXPECT_EQ(ledger.refusals(5), 0u);
  // The count goes with the entry: a retired or unknown id has none.
  ledger.execute(4, /*hit=*/true);
  EXPECT_THROW(static_cast<void>(ledger.refusals(4)), InvariantViolation);
  EXPECT_THROW(static_cast<void>(ledger.refusals(6)), InvariantViolation);
}

TEST(TaskLedgerTest, CullAndRejectAreTerminal) {
  TaskLedger ledger;
  ledger.arrive(1);
  ledger.admit(1);
  ledger.cull(1);
  ledger.arrive(2);
  ledger.admit(2);
  ledger.schedule(2);
  ledger.reject(2);
  EXPECT_EQ(ledger.size(), 0u);
  const LedgerCounts& c = ledger.counts();
  EXPECT_TRUE(c.conserved());
  EXPECT_EQ(c.culled, 1u);
  EXPECT_EQ(c.rejected, 1u);
  EXPECT_EQ(c.total, 2u);
}

TEST(TaskLedgerTest, TerminalTransitionRemovesTheEntry) {
  TaskLedger ledger;
  for (tasks::TaskId id = 0; id < 5; ++id) ledger.arrive(id);
  for (tasks::TaskId id = 1; id < 5; ++id) ledger.admit(id);
  for (tasks::TaskId id = 2; id < 5; ++id) ledger.schedule(id);
  for (tasks::TaskId id = 3; id < 5; ++id) ledger.deliver(id);
  EXPECT_EQ(ledger.size(), 5u);
  ledger.reject_admission(0);
  EXPECT_EQ(ledger.size(), 4u);
  ledger.cull(1);
  EXPECT_EQ(ledger.size(), 3u);
  ledger.reject(2);
  EXPECT_EQ(ledger.size(), 2u);
  ledger.execute(3, /*hit=*/true);
  EXPECT_EQ(ledger.size(), 1u);
  ledger.execute(4, /*hit=*/false);
  EXPECT_EQ(ledger.size(), 0u);
  // The counters alone still balance the run exactly.
  const LedgerCounts& c = ledger.counts();
  EXPECT_TRUE(c.conserved());
  EXPECT_EQ(c.total, 5u);
  EXPECT_EQ(c.in_flight, 0u);
  EXPECT_EQ(c.admission_rejected + c.culled + c.rejected + c.deadline_hits +
                c.exec_misses,
            5u);
  for (tasks::TaskId id = 0; id < 5; ++id) {
    EXPECT_TRUE(ledger.known(id));
    EXPECT_THROW(static_cast<void>(ledger.state(id)), InvariantViolation);
  }
}

TEST(TaskLedgerTest, RetiredIdCannotMoveOrArriveAgain) {
  TaskLedger ledger;
  ledger.arrive(3);
  ledger.admit(3);
  ledger.schedule(3);
  ledger.deliver(3);
  ledger.execute(3, /*hit=*/true);
  EXPECT_THROW(ledger.arrive(3), InvariantViolation);  // re-offered
  EXPECT_THROW(ledger.admit(3), InvariantViolation);
  EXPECT_THROW(ledger.schedule(3), InvariantViolation);
  EXPECT_THROW(ledger.deliver(3), InvariantViolation);
  EXPECT_THROW(ledger.drop(3), InvariantViolation);
  EXPECT_THROW(ledger.cull(3), InvariantViolation);
  EXPECT_THROW(ledger.reject(3), InvariantViolation);
  EXPECT_THROW(ledger.reject_admission(3), InvariantViolation);
  EXPECT_THROW(ledger.execute(3, true), InvariantViolation);  // double count
  // None of the refused calls touched the books.
  EXPECT_EQ(ledger.counts().total, 1u);
  EXPECT_EQ(ledger.counts().deadline_hits, 1u);
  EXPECT_TRUE(ledger.counts().conserved());
}

TEST(TaskLedgerTest, IllegalTransitionsThrow) {
  TaskLedger ledger;
  ledger.arrive(1);
  EXPECT_THROW(ledger.schedule(1), InvariantViolation);  // not batched yet
  ledger.admit(1);
  EXPECT_THROW(ledger.deliver(1), InvariantViolation);   // not scheduled
  EXPECT_THROW(ledger.execute(1, true), InvariantViolation);
  ledger.schedule(1);
  ledger.deliver(1);
  ledger.execute(1, true);
  EXPECT_THROW(ledger.execute(1, true), InvariantViolation);  // double count
  EXPECT_THROW(ledger.arrive(1), InvariantViolation);         // re-offered
  EXPECT_THROW(ledger.admit(99), InvariantViolation);         // unknown id
}

TEST(TaskLedgerTest, ConservationCheckFlagsInFlightTasks) {
  TaskLedger ledger;
  ledger.arrive(1);
  ledger.admit(1);
  EXPECT_FALSE(ledger.counts().conserved());
  EXPECT_EQ(ledger.counts().in_flight, 1u);
  EXPECT_THROW(ledger.check_conserved(), InvariantViolation);
  ledger.cull(1);
  ledger.check_conserved();  // no throw
}

TEST(TaskLedgerTest, ClearResets) {
  TaskLedger ledger;
  ledger.arrive(1);
  ledger.clear();
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_FALSE(ledger.known(1));
  EXPECT_EQ(ledger.counts().total, 0u);
  EXPECT_TRUE(ledger.counts().conserved());  // vacuously
}

TEST(TaskLedgerTest, ClearForgetsSeenIds) {
  TaskLedger ledger;
  ledger.arrive(4);
  ledger.admit(4);
  ledger.cull(4);
  EXPECT_THROW(ledger.arrive(4), InvariantViolation);
  ledger.clear();
  EXPECT_EQ(ledger.seen_ranges(), 0u);
  ledger.arrive(4);  // a new run may reuse the id
  EXPECT_EQ(ledger.state(4), TaskState::kArrived);
  EXPECT_EQ(ledger.counts().total, 1u);
}

TEST(TaskLedgerTest, ConsecutiveIdsStayOneRange) {
  TaskLedger ledger;
  for (tasks::TaskId id = 0; id < 10000; ++id) {
    ledger.arrive(id);
    ledger.reject_admission(id);
    EXPECT_EQ(ledger.seen_ranges(), 1u);
  }
  EXPECT_EQ(ledger.size(), 0u);
  // Descending ids extend a range downwards just the same.
  for (tasks::TaskId id = 20000; id > 15000; --id) {
    ledger.arrive(id);
    ledger.reject_admission(id);
  }
  EXPECT_EQ(ledger.seen_ranges(), 2u);  // [0, 9999] and [15001, 20000]
  EXPECT_TRUE(ledger.known(9999));
  EXPECT_FALSE(ledger.known(10000));
  EXPECT_FALSE(ledger.known(15000));
  EXPECT_TRUE(ledger.known(15001));
}

TEST(TaskLedgerTest, OutOfOrderRepeatIsCaught) {
  TaskLedger ledger;
  for (const tasks::TaskId id : {10u, 30u, 20u, 11u, 29u}) {
    ledger.arrive(id);
    ledger.reject_admission(id);
  }
  EXPECT_EQ(ledger.seen_ranges(), 3u);  // [10, 11], [20], [29, 30]
  // Repeats at range ends and inside, all already retired.
  for (const tasks::TaskId id : {10u, 11u, 20u, 29u, 30u}) {
    EXPECT_THROW(ledger.arrive(id), InvariantViolation) << id;
  }
  EXPECT_EQ(ledger.counts().total, 5u);
  // Filling the gaps merges the ranges into one.
  for (tasks::TaskId id = 12; id < 29; ++id) {
    if (id == 20) continue;
    ledger.arrive(id);
    ledger.reject_admission(id);
  }
  EXPECT_EQ(ledger.seen_ranges(), 1u);
  EXPECT_THROW(ledger.arrive(25), InvariantViolation);
  ledger.arrive(9);
  ledger.arrive(31);
  EXPECT_EQ(ledger.seen_ranges(), 1u);
  EXPECT_EQ(ledger.size(), 2u);
}

TEST(TaskLedgerTest, ExtremeIdsDoNotWrap) {
  TaskLedger ledger;
  constexpr tasks::TaskId kMax = std::numeric_limits<tasks::TaskId>::max();
  ledger.arrive(kMax);
  ledger.arrive(0);
  EXPECT_EQ(ledger.seen_ranges(), 2u);
  ledger.arrive(kMax - 1);
  EXPECT_EQ(ledger.seen_ranges(), 2u);
  EXPECT_THROW(ledger.arrive(kMax), InvariantViolation);
  EXPECT_THROW(ledger.arrive(0), InvariantViolation);
  EXPECT_FALSE(ledger.known(1));
}

/// What a transition of `id` from `from` to `to` must throw when the
/// ledger's entry for it is not in `from`.
std::string move_error(tasks::TaskId id, const char* now, TaskState from,
                       TaskState to) {
  return "TaskLedger: task " + std::to_string(id) + " is " + now +
         ", cannot move " + to_string(from) + " -> " + to_string(to);
}

bool ends_with(const std::string& text, const std::string& tail) {
  return text.size() >= tail.size() &&
         text.compare(text.size() - tail.size(), tail.size(), tail) == 0;
}

TEST(TaskLedgerTest, FlatTableMatchesAMapModel) {
  // Random transition sequences, legal and illegal, against a std::map
  // model. The ids are not consecutive, and some are picked to collide:
  // at every table size the run passes through, several share the last
  // slot (their probe run wraps to slot 0) and several the first. The
  // in-flight count rises and falls twice, so the table grows and entries
  // are erased across its wrap.
  Xoshiro256ss rng(0x1ED6E5ULL);
  constexpr tasks::TaskId kMax = std::numeric_limits<tasks::TaskId>::max();
  std::vector<tasks::TaskId> pool = {0, 1, kMax - 1, kMax};
  std::set<tasks::TaskId> picked(pool.begin(), pool.end());
  for (std::size_t capacity = 16; capacity <= 1024; capacity *= 2) {
    std::size_t last = 0, first = 0;
    while (last < 12 || first < 3) {
      const auto id = static_cast<tasks::TaskId>(rng.next());
      const std::size_t home = TaskLedger::home_slot(id, capacity);
      const bool want = (home == capacity - 1 && last < 12) ||
                        (home == 0 && first < 3);
      if (!want || !picked.insert(id).second) continue;
      (home == 0 ? first : last) += 1;
      pool.push_back(id);
    }
  }
  while (pool.size() < 1500) {
    const auto id = static_cast<tasks::TaskId>(rng.next());
    if (picked.insert(id).second) pool.push_back(id);
  }
  for (std::size_t i = pool.size(); i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.next() % i]);
  }

  struct Model {
    TaskState state;
    std::uint32_t refusals;
  };
  std::map<tasks::TaskId, Model> live;
  std::set<tasks::TaskId> seen;
  TaskLedger ledger;
  std::size_t arrived = 0, peak_capacity = 0, wrapped = 0, wrap_erased = 0;
  // Live ids homed at the table's last slot; two or more wrap.
  const auto at_last_slot = [&] {
    std::size_t n = 0;
    for (const auto& [id, m] : live) {
      n += TaskLedger::home_slot(id, ledger.capacity()) ==
                   ledger.capacity() - 1
               ? 1
               : 0;
    }
    return n;
  };

  constexpr std::uint32_t kSteps = 40000;
  for (std::uint32_t step = 0; step < kSteps; ++step) {
    // Arrivals outpace retirements in the first and third quarters.
    const bool filling = (step / (kSteps / 4)) % 2 == 0;
    if (arrived < pool.size() && rng.bernoulli(filling ? 0.35 : 0.05)) {
      const tasks::TaskId id = pool[arrived++];
      ledger.arrive(id);
      live[id] = Model{TaskState::kArrived, 0};
      seen.insert(id);
      continue;
    }
    // A transition of a live id (mostly) or of any pool id (illegal when
    // the id is unknown, retired or in another state).
    tasks::TaskId id;
    if (!live.empty() && rng.bernoulli(0.9)) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.next() % live.size()));
      id = it->first;
    } else {
      id = pool[rng.next() % pool.size()];
    }
    struct Move {
      TaskState from;
      TaskState to;
    };
    static constexpr Move kMoves[] = {
        {TaskState::kArrived, TaskState::kBatched},
        {TaskState::kBatched, TaskState::kScheduled},
        {TaskState::kScheduled, TaskState::kDelivered},
        {TaskState::kScheduled, TaskState::kBatched},
        {TaskState::kBatched, TaskState::kCulled},
        {TaskState::kScheduled, TaskState::kRejected},
        {TaskState::kArrived, TaskState::kAdmissionRejected},
        {TaskState::kDelivered, TaskState::kDeadlineHit},
        {TaskState::kDelivered, TaskState::kExecMiss},
        {TaskState::kArrived, TaskState::kArrived},  // arrive again
    };
    const std::size_t pick = rng.next() % std::size(kMoves);
    const Move move = kMoves[pick];
    const auto apply = [&] {
      switch (pick) {
        case 0: ledger.admit(id); break;
        case 1: ledger.schedule(id); break;
        case 2: ledger.deliver(id); break;
        case 3: ledger.drop(id); break;
        case 4: ledger.cull(id); break;
        case 5: ledger.reject(id); break;
        case 6: ledger.reject_admission(id); break;
        case 7: ledger.execute(id, true); break;
        case 8: ledger.execute(id, false); break;
        default: ledger.arrive(id); break;
      }
    };
    const auto found = live.find(id);
    if (pick == 9) {
      // Arriving twice throws whatever the id's state.
      if (seen.count(id) == 0) continue;
      try {
        apply();
        ADD_FAILURE() << "arrive(" << id << ") again did not throw";
      } catch (const InvariantViolation& e) {
        EXPECT_TRUE(ends_with(e.what(), "TaskLedger: task arrived twice"))
            << e.what();
      }
      continue;
    }
    if (found == live.end() || found->second.state != move.from) {
      const std::string now =
          found != live.end() ? to_string(found->second.state)
          : seen.count(id) != 0 ? "retired"
                                : "unknown";
      try {
        apply();
        ADD_FAILURE() << "illegal move of " << id << " did not throw";
      } catch (const InvariantViolation& e) {
        EXPECT_TRUE(ends_with(e.what(),
                              move_error(id, now.c_str(), move.from, move.to)))
            << e.what();
      }
      continue;
    }
    const bool terminal = pick >= 4 && pick <= 8;
    const bool wraps = terminal &&
                       TaskLedger::home_slot(id, ledger.capacity()) ==
                           ledger.capacity() - 1 &&
                       at_last_slot() >= 2;
    apply();
    if (terminal) {
      live.erase(found);
      wrap_erased += wraps ? 1 : 0;
    } else {
      found->second.state = move.to;
      found->second.refusals += pick == 3 ? 1 : 0;
    }

    ASSERT_EQ(ledger.size(), live.size()) << "step " << step;
    ASSERT_GE(ledger.capacity(), 2 * ledger.size());
    peak_capacity = std::max(peak_capacity, ledger.capacity());
    wrapped += at_last_slot() >= 2 ? 1 : 0;
    if (step % 64 == 0) {
      for (const auto& [live_id, m] : live) {
        ASSERT_EQ(ledger.state(live_id), m.state) << live_id;
        ASSERT_EQ(ledger.refusals(live_id), m.refusals) << live_id;
      }
      for (const tasks::TaskId other : pool) {
        ASSERT_EQ(ledger.known(other), seen.count(other) != 0) << other;
        if (live.count(other) == 0) {
          EXPECT_THROW((void)ledger.state(other), InvariantViolation);
        }
      }
    }
  }
  // The run passed through growth, wrapped probe runs and erasures inside
  // them.
  EXPECT_GE(peak_capacity, 512u);
  EXPECT_GT(wrapped, 100u);
  EXPECT_GT(wrap_erased, 5u);
  EXPECT_EQ(ledger.counts().total, seen.size());
  EXPECT_EQ(ledger.counts().in_flight, live.size());
}

TEST(TaskLedgerTest, StateNamesAreStable) {
  EXPECT_STREQ(to_string(TaskState::kRejected), "rejected");
  EXPECT_STREQ(to_string(TaskState::kDeadlineHit), "deadline_hit");
}

}  // namespace
}  // namespace rtds::sched
