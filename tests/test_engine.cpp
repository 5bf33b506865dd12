// Discrete-event engine: ordering, cancellation, periodics, horizons, the
// arrival lane, and a differential run against the heap-only oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "heap_engine.h"
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


// ---- arrival lane --------------------------------------------------------

TEST(Engine, BulkArrivalsFireInTimeThenLoadOrder) {
  Engine e;
  std::vector<std::pair<std::uint32_t, SimTime>> fired;
  e.set_arrival_handler([&](std::uint32_t tag) { fired.emplace_back(tag, e.now()); });
  e.add_arrival(30, 0);
  e.add_arrival(10, 1);
  e.add_arrival(20, 2);
  e.add_arrival(10, 3);
  EXPECT_EQ(e.pending_events(), 4u);
  e.run_all();
  const std::vector<std::pair<std::uint32_t, SimTime>> want = {{1, 10}, {3, 10}, {2, 20}, {0, 30}};
  EXPECT_EQ(fired, want);
  EXPECT_EQ(e.executed_events(), 4u);
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, BulkArrivalFiresBeforeEventsScheduledLaterForItsTime) {
  // The arrival takes its seq at add_arrival: an event queued for t before
  // it fires first, every event queued for t after it — up front or from a
  // callback — fires after it.
  Engine e;
  std::vector<std::string> order;
  e.set_arrival_handler([&](std::uint32_t) { order.push_back("arrival"); });
  e.schedule_at(10, [&] { order.push_back("before"); });
  e.add_arrival(10, 0);
  e.schedule_at(10, [&] { order.push_back("after"); });
  e.schedule_at(5, [&] { e.schedule_at(10, [&] { order.push_back("from-callback"); }); });
  e.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"before", "arrival", "after", "from-callback"}));
}

TEST(Engine, RepeatedBulkLoadsMergeBySequence) {
  Engine e;
  std::vector<std::uint32_t> fired;
  e.set_arrival_handler([&](std::uint32_t tag) { fired.push_back(tag); });
  e.add_arrival(20, 0);
  e.add_arrival(10, 1);
  e.run_until(10);
  e.add_arrival(20, 2);
  e.add_arrival(15, 3);
  e.add_arrival(20, 4);
  EXPECT_EQ(e.pending_events(), 4u);
  e.run_all();
  EXPECT_EQ(fired, (std::vector<std::uint32_t>{1, 3, 0, 2, 4}));
}

TEST(Engine, StreamedArrivalFiresBeforeEventsItsPredecessorScheduled) {
  // The arrival at 10 is pulled, and takes its seq, when the arrival at 5
  // fires and before its handler runs: it beats what that handler schedules
  // for 10, but not an event queued for 10 before the pull.
  Engine e;
  std::vector<std::string> order;
  std::vector<SimTime> times = {5, 10};
  std::size_t next = 0;
  e.schedule_at(10, [&] { order.push_back("queued-before-pull"); });
  e.set_arrival_handler([&](std::uint32_t tag) {
    order.push_back("arrival" + std::to_string(tag));
    if (tag == 0) e.schedule_at(10, [&] { order.push_back("from-arrival0"); });
  });
  e.stream_arrivals([&]() -> std::optional<Engine::Arrival> {
    if (next == times.size()) return std::nullopt;
    const auto tag = static_cast<std::uint32_t>(next);
    return Engine::Arrival{times[next++], tag};
  });
  EXPECT_EQ(e.pending_events(), 2u);  // the streamed head counts as pending
  e.run_all();
  EXPECT_EQ(order, (std::vector<std::string>{"arrival0", "queued-before-pull", "arrival1",
                                             "from-arrival0"}));
  EXPECT_EQ(e.pending_events(), 0u);
}

TEST(Engine, LaneRejectsThePastAndASecondStream) {
  Engine e;
  e.set_arrival_handler([](std::uint32_t) {});
  e.run_until(10);
  EXPECT_THROW(e.add_arrival(5, 0), InvariantError);
  EXPECT_THROW(e.set_arrival_handler(nullptr), InvariantError);
  e.stream_arrivals([]() -> std::optional<Engine::Arrival> { return std::nullopt; });
  EXPECT_THROW(e.stream_arrivals([]() -> std::optional<Engine::Arrival> { return std::nullopt; }),
               InvariantError);
}

TEST(Engine, PendingEventsCountsPeriodicHeads) {
  Engine e;
  e.schedule_periodic(10, 10, [] {});
  e.schedule_at(5, [] {});
  EXPECT_EQ(e.pending_events(), 2u);
  e.run_until(100);
  EXPECT_EQ(e.pending_events(), 1u);
}

// ---- differential run against the heap-only oracle -----------------------

/// One seeded random workload on engine type E: every decision is a pure
/// function of the seed and of what E has fired so far, so two engines that
/// fire the same sequence make the same decisions. Dense timestamps (gaps of
/// 0-3) make most orderings ties broken by sequence number.
template <class E>
class Workload {
 public:
  explicit Workload(std::uint64_t seed) : x_(seed) {}

  /// (label, now) per firing, plus the results of cancel/reschedule calls
  /// and pending_events() at each checkpoint.
  std::vector<std::pair<std::int64_t, SimTime>> run() {
    e_.set_arrival_handler([this](std::uint32_t tag) {
      record(kArrivalLabel + tag);
      act();
    });
    load_batch(40);
    for (int i = 0; i < 30; ++i) schedule(static_cast<SimTime>(draw(60)));
    e_.schedule_periodic(1, 3, [this] {
      record(kPeriodicLabel);
      act();
    });
    e_.schedule_periodic(0, 5, [this] { record(kPeriodicLabel + 1); });
    e_.stream_arrivals([this]() -> std::optional<Engine::Arrival> {
      if (streamed_ == 300) return std::nullopt;
      stream_time_ += static_cast<SimTime>(draw(4));
      return Engine::Arrival{stream_time_, kStreamTag + streamed_++};
    });
    for (SimTime horizon = 20; horizon <= 1000; horizon += 20) {
      e_.run_until(horizon);
      checkpoint();
      if (draw(3) == 0) load_batch(draw(15));
      if (draw(2) == 0 && e_.step()) checkpoint();
    }
    return log_;
  }

 private:
  static constexpr std::int64_t kArrivalLabel = 1'000'000;
  static constexpr std::int64_t kPeriodicLabel = 2'000'000;
  static constexpr std::int64_t kCheckpoint = 3'000'000;
  static constexpr std::int64_t kResult = 4'000'000;
  static constexpr std::uint32_t kStreamTag = 100'000;

  std::uint64_t draw(std::uint64_t n) {
    x_ = x_ * 6364136223846793005ULL + 1442695040888963407ULL;  // LCG: test-local
    return (x_ >> 33) % n;
  }
  void record(std::int64_t label) { log_.emplace_back(label, e_.now()); }
  void checkpoint() {
    log_.emplace_back(kCheckpoint + static_cast<std::int64_t>(e_.pending_events()), e_.now());
  }

  void schedule(SimTime t) {
    const auto label = static_cast<std::int64_t>(handles_.size());
    handles_.push_back(e_.schedule_at(t, [this, label] {
      record(label);
      act();
    }));
  }
  /// Unsorted batch of bulk arrivals at or after now, ties included.
  void load_batch(std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i) {
      e_.add_arrival(e_.now() + static_cast<SimTime>(draw(50)), bulk_tag_++);
    }
  }
  /// What a firing does: schedule, cancel or reschedule a random event.
  void act() {
    switch (draw(7)) {
      case 0:
      case 1:
      case 2:
        if (handles_.size() < 3000) schedule(e_.now() + static_cast<SimTime>(draw(4)));
        break;
      case 3:
        log_.emplace_back(kResult + e_.cancel(pick()), e_.now());
        break;
      case 4: {
        const SimTime t = e_.now() + static_cast<SimTime>(draw(6));
        log_.emplace_back(kResult + 2 + e_.reschedule(pick(), t), e_.now());
        break;
      }
      case 5:
        if (draw(4) == 0) e_.add_arrival(e_.now() + static_cast<SimTime>(draw(3)), bulk_tag_++);
        break;
      default:
        break;
    }
  }
  EventHandle pick() { return handles_[draw(handles_.size())]; }

  E e_;
  std::uint64_t x_;
  std::vector<std::pair<std::int64_t, SimTime>> log_;
  std::vector<EventHandle> handles_;
  std::uint32_t bulk_tag_ = 0;
  std::uint32_t streamed_ = 0;
  SimTime stream_time_ = 0;
};

TEST(Engine, MatchesHeapOnlyOracle) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 2022ULL, 99991ULL}) {
    SCOPED_TRACE(seed);
    const auto want = Workload<testing::HeapEngine>(seed).run();
    const auto got = Workload<Engine>(seed).run();
    ASSERT_GT(want.size(), 1000u);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "first divergence at firing " << i;
    }
  }
}

}  // namespace
}  // namespace vmlp::sim
