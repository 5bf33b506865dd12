// Discrete-event engine: ordering, cancellation, periodics, horizons.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.h"
#include "sim/engine.h"

namespace vmlp::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, EqualTimesFireInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  e.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine e;
  e.schedule_at(10, [] {});
  e.run_all();
  EXPECT_THROW(e.schedule_at(5, [] {}), InvariantError);
  EXPECT_THROW(e.schedule_after(-1, [] {}), InvariantError);
}

TEST(Engine, NullCallbackThrows) {
  Engine e;
  EXPECT_THROW(e.schedule_at(1, nullptr), InvariantError);
}

TEST(Engine, ScheduleAfterUsesNow) {
  Engine e;
  SimTime fired_at = -1;
  e.schedule_at(10, [&] {
    e.schedule_after(5, [&] { fired_at = e.now(); });
  });
  e.run_all();
  EXPECT_EQ(fired_at, 15);
}

TEST(Engine, CancelPreventsExecution) {
  Engine e;
  bool ran = false;
  auto h = e.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(e.pending(h));
  EXPECT_TRUE(e.cancel(h));
  EXPECT_FALSE(e.pending(h));
  e.run_all();
  EXPECT_FALSE(ran);
}

TEST(Engine, CancelTwiceReturnsFalse) {
  Engine e;
  auto h = e.schedule_at(10, [] {});
  EXPECT_TRUE(e.cancel(h));
  EXPECT_FALSE(e.cancel(h));
}

TEST(Engine, CancelInvalidHandle) {
  Engine e;
  EXPECT_FALSE(e.cancel(EventHandle{}));
  EXPECT_FALSE(e.cancel(EventHandle{999}));
}

TEST(Engine, CancelAfterFiringReturnsFalse) {
  Engine e;
  auto h = e.schedule_at(10, [] {});
  e.run_all();
  EXPECT_FALSE(e.cancel(h));
}

TEST(Engine, EventsScheduledDuringExecution) {
  Engine e;
  std::vector<SimTime> times;
  e.schedule_at(10, [&] {
    times.push_back(e.now());
    e.schedule_at(20, [&] { times.push_back(e.now()); });
  });
  e.run_all();
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20}));
}

TEST(Engine, RunUntilStopsAtHorizon) {
  Engine e;
  int fired = 0;
  e.schedule_at(10, [&] { ++fired; });
  e.schedule_at(100, [&] { ++fired; });
  e.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 50);
  EXPECT_EQ(e.pending_events(), 1u);
  e.run_until(200);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), 200);
}

TEST(Engine, RunUntilWithEmptyQueueAdvancesTime) {
  Engine e;
  e.run_until(42);
  EXPECT_EQ(e.now(), 42);
}

TEST(Engine, RunUntilBackwardsThrows) {
  Engine e;
  e.run_until(10);
  EXPECT_THROW(e.run_until(5), InvariantError);
}

TEST(Engine, EventAtHorizonBoundaryFires) {
  Engine e;
  bool ran = false;
  e.schedule_at(50, [&] { ran = true; });
  e.run_until(50);
  EXPECT_TRUE(ran);
}

TEST(Engine, StepExecutesOne) {
  Engine e;
  int fired = 0;
  e.schedule_at(1, [&] { ++fired; });
  e.schedule_at(2, [&] { ++fired; });
  EXPECT_TRUE(e.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
  EXPECT_EQ(fired, 2);
}

TEST(Engine, PeriodicFiresRepeatedly) {
  Engine e;
  std::vector<SimTime> times;
  e.schedule_periodic(10, 10, [&] { times.push_back(e.now()); });
  e.run_until(45);
  EXPECT_EQ(times, (std::vector<SimTime>{10, 20, 30, 40}));
}

TEST(Engine, PeriodicRearmsBeforeItsBody) {
  // Each occurrence queues the next one before running the body, so an event
  // the body schedules at now + period takes a later sequence number and
  // fires after that next occurrence.
  Engine e;
  std::vector<std::string> order;
  e.schedule_periodic(10, 10, [&] {
    order.push_back("tick@" + std::to_string(e.now()));
    if (e.now() == 10) e.schedule_at(20, [&] { order.push_back("event@20"); });
  });
  e.run_until(25);
  EXPECT_EQ(order, (std::vector<std::string>{"tick@10", "tick@20", "event@20"}));
}

TEST(Engine, PeriodicBadParamsThrow) {
  Engine e;
  EXPECT_THROW(e.schedule_periodic(0, 0, [] {}), InvariantError);
  EXPECT_THROW(e.schedule_periodic(0, 10, nullptr), InvariantError);
}

TEST(Engine, ExecutedEventCount) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.schedule_at(i, [] {});
  e.run_all();
  EXPECT_EQ(e.executed_events(), 5u);
}

TEST(Engine, RescheduleMovesEventLater) {
  Engine e;
  std::vector<SimTime> fired;
  auto h = e.schedule_at(10, [&] { fired.push_back(e.now()); });
  e.schedule_at(20, [&] { fired.push_back(e.now()); });
  EXPECT_TRUE(e.reschedule(h, 30));
  e.run_all();
  EXPECT_EQ(fired, (std::vector<SimTime>{20, 30}));
}

TEST(Engine, RescheduleMovesEventEarlier) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(15, [&] { order.push_back(1); });
  auto h = e.schedule_at(40, [&] { order.push_back(2); });
  EXPECT_TRUE(e.reschedule(h, 5));
  e.run_all();
  EXPECT_EQ(order, (std::vector<int>{2, 1}));
  EXPECT_EQ(e.now(), 15);
}

TEST(Engine, RescheduleToEqualTimeFiresAfterAlreadyQueued) {
  // A reschedule takes a fresh sequence number, so landing on an occupied
  // timestamp queues *behind* the events already there — byte-compatible
  // with the cancel+schedule_at idiom it replaces.
  Engine e;
  std::vector<int> order;
  auto h = e.schedule_at(5, [&] { order.push_back(0); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(10, [&] { order.push_back(2); });
  EXPECT_TRUE(e.reschedule(h, 10));
  e.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
}

TEST(Engine, RescheduleAfterUsesNow) {
  Engine e;
  SimTime fired_at = -1;
  EventHandle h;
  h = e.schedule_at(100, [&] { fired_at = e.now(); });
  e.schedule_at(10, [&] { EXPECT_TRUE(e.reschedule_after(h, 7)); });
  e.run_all();
  EXPECT_EQ(fired_at, 17);
}

TEST(Engine, RescheduleDeadHandlesReturnsFalse) {
  Engine e;
  EXPECT_FALSE(e.reschedule(EventHandle{}, 5));
  EXPECT_FALSE(e.reschedule(EventHandle{999}, 5));
  auto cancelled = e.schedule_at(10, [] {});
  EXPECT_TRUE(e.cancel(cancelled));
  EXPECT_FALSE(e.reschedule(cancelled, 20));
  auto fired = e.schedule_at(10, [] {});
  e.run_all();
  EXPECT_FALSE(e.reschedule(fired, 20));
}

TEST(Engine, RescheduleStaleHandleAfterSlotReuseReturnsFalse) {
  // Cancelling frees the slot; a new event may reuse it. The old handle's
  // generation no longer matches, so it must not move the new occupant.
  Engine e;
  auto old = e.schedule_at(10, [] {});
  EXPECT_TRUE(e.cancel(old));
  bool ran = false;
  e.schedule_at(20, [&] { ran = true; });  // reuses the freed slot
  EXPECT_FALSE(e.reschedule(old, 500));
  e.run_until(30);
  EXPECT_TRUE(ran);
}

TEST(Engine, RescheduleIntoPastThrows) {
  Engine e;
  auto h = e.schedule_at(50, [] {});
  e.schedule_at(10, [&] { EXPECT_THROW(e.reschedule(h, 5), InvariantError); });
  e.run_all();
  EXPECT_THROW(e.reschedule_after(e.schedule_after(1, [] {}), -1), InvariantError);
}

TEST(Engine, RescheduleMatchesCancelAndRescheduleIdiom) {
  // Randomized equivalence: engine A uses reschedule, engine B the
  // cancel+schedule_at idiom it replaces. Identical op streams must produce
  // identical firing orders.
  Engine a;
  Engine b;
  std::vector<int> fired_a;
  std::vector<int> fired_b;
  std::vector<EventHandle> ha;
  std::vector<EventHandle> hb;
  for (int i = 0; i < 200; ++i) {
    const SimTime t = (i * 7919) % 500;
    ha.push_back(a.schedule_at(t, [&fired_a, i] { fired_a.push_back(i); }));
    hb.push_back(b.schedule_at(t, [&fired_b, i] { fired_b.push_back(i); }));
  }
  std::uint64_t x = 2022;
  for (int round = 0; round < 400; ++round) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;  // LCG: test-local, not sim state
    const auto idx = static_cast<std::size_t>((x >> 33) % 200);
    const SimTime t = static_cast<SimTime>((x >> 20) % 500);
    const bool moved = a.reschedule(ha[idx], t);
    if (b.cancel(hb[idx])) {
      ASSERT_TRUE(moved);
      hb[idx] = b.schedule_at(t, [&fired_b, i = static_cast<int>(idx)] { fired_b.push_back(i); });
    } else {
      ASSERT_FALSE(moved);
    }
  }
  a.run_all();
  b.run_all();
  EXPECT_EQ(fired_a, fired_b);
  EXPECT_EQ(a.executed_events(), b.executed_events());
}

TEST(Engine, SlotsAreRecycled) {
  // The event pool must reuse freed slots instead of growing without bound.
  Engine e;
  for (int round = 0; round < 1000; ++round) {
    e.schedule_after(1, [] {});
    e.step();
  }
  EXPECT_EQ(e.executed_events(), 1000u);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, ManyEventsStressOrdering) {
  Engine e;
  SimTime last = -1;
  bool monotone = true;
  for (int i = 0; i < 10000; ++i) {
    e.schedule_at((i * 7919) % 1000, [&] {
      if (e.now() < last) monotone = false;
      last = e.now();
    });
  }
  e.run_all();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(e.executed_events(), 10000u);
}

}  // namespace
}  // namespace vmlp::sim
