#include "sched/ledger.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "common/error.h"

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

TEST(TaskLedgerTest, StateNamesAreStable) {
  EXPECT_STREQ(to_string(TaskState::kRejected), "rejected");
  EXPECT_STREQ(to_string(TaskState::kDeadlineHit), "deadline_hit");
}

}  // namespace
}  // namespace rtds::sched
