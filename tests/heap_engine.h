// HeapEngine: the heap-only discrete-event engine, kept as a test-only
// oracle for sim::Engine.
//
// Every event — arrivals and periodic occurrences included — is one entry in
// a single indexed binary heap ordered by (time, seq), with the same
// sequence-number discipline as sim::Engine: schedule_at and reschedule take
// a fresh seq, a periodic occurrence queues its successor before running its
// body. A bulk arrival is one schedule_at; a streamed arrival is an event
// that schedules its successor and then runs the handler. sim::Engine must
// fire exactly the same sequence at exactly the same times. No pooling
// arena, no telemetry, no audit tier.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/inline_function.h"
#include "common/types.h"
#include "sim/engine.h"

namespace vmlp::sim::testing {

class HeapEngine {
 public:
  using Callback = InlineFunction<void(), 48>;

  [[nodiscard]] SimTime now() const { return now_; }

  EventHandle schedule_at(SimTime t, Callback fn) {
    VMLP_CHECK_MSG(t >= now_, "scheduling into the past");
    const std::uint32_t slot = acquire_slot();
    Event& e = pool_[slot];
    e.time = t;
    e.seq = next_seq_++;
    e.id = (next_generation_++ << 32) | slot;
    e.fn = std::move(fn);
    heap_.push_back(slot);
    sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
    return EventHandle{e.id};
  }
  EventHandle schedule_after(SimDuration delay, Callback fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  void schedule_periodic(SimTime start, SimDuration period, Callback fn) {
    periodics_.push_back(Periodic{period, std::move(fn)});
    arm_periodic(periodics_.back(), start);
  }

  void set_arrival_handler(Engine::ArrivalHandler fn) { on_arrival_ = std::move(fn); }
  void add_arrival(SimTime t, std::uint32_t tag) {
    schedule_at(t, [this, tag] { on_arrival_(tag); });
  }
  void stream_arrivals(Engine::ArrivalSource source) {
    stream_ = std::move(source);
    schedule_next_stream_arrival();
  }

  bool cancel(EventHandle handle) {
    if (!pending(handle)) return false;
    const std::uint32_t slot = slot_of(handle.id);
    heap_remove(slot);
    release_slot(slot);
    return true;
  }
  [[nodiscard]] bool pending(EventHandle handle) const {
    const std::uint32_t slot = slot_of(handle.id);
    return handle.id != 0 && slot < pool_.size() && pool_[slot].id == handle.id;
  }

  bool reschedule(EventHandle handle, SimTime t) {
    if (!pending(handle)) return false;
    VMLP_CHECK_MSG(t >= now_, "rescheduling into the past");
    const std::uint32_t slot = slot_of(handle.id);
    pool_[slot].time = t;
    pool_[slot].seq = next_seq_++;
    sift_up(pool_[slot].heap_pos);
    sift_down(pool_[slot].heap_pos);
    return true;
  }

  bool step() {
    if (heap_.empty()) return false;
    const std::uint32_t slot = heap_[0];
    Event& e = pool_[slot];
    now_ = e.time;
    Callback fn = std::move(e.fn);
    heap_remove(slot);
    release_slot(slot);
    ++executed_;
    fn();
    return true;
  }
  void run_until(SimTime horizon) {
    while (!heap_.empty() && pool_[heap_[0]].time <= horizon) step();
    now_ = horizon;
  }

  [[nodiscard]] std::size_t pending_events() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

 private:
  static constexpr std::uint32_t kNoHeapPos = 0xffffffffu;

  struct Event {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint64_t id = 0;
    std::uint32_t heap_pos = kNoHeapPos;
    Callback fn;
  };
  struct Periodic {
    SimDuration period;
    Callback fn;
  };

  static std::uint32_t slot_of(std::uint64_t id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu);
  }
  [[nodiscard]] bool before(std::uint32_t a, std::uint32_t b) const {
    const Event& ea = pool_[a];
    const Event& eb = pool_[b];
    return ea.time != eb.time ? ea.time < eb.time : ea.seq < eb.seq;
  }

  std::uint32_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    pool_.emplace_back();
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }
  void release_slot(std::uint32_t slot) {
    pool_[slot].id = 0;
    pool_[slot].heap_pos = kNoHeapPos;
    pool_[slot].fn = nullptr;
    free_slots_.push_back(slot);
  }
  void sift_up(std::uint32_t pos) {
    const std::uint32_t slot = heap_[pos];
    while (pos > 0) {
      const std::uint32_t parent = (pos - 1) / 2;
      if (!before(slot, heap_[parent])) break;
      heap_[pos] = heap_[parent];
      pool_[heap_[pos]].heap_pos = pos;
      pos = parent;
    }
    heap_[pos] = slot;
    pool_[slot].heap_pos = pos;
  }
  void sift_down(std::uint32_t pos) {
    const std::uint32_t slot = heap_[pos];
    const auto n = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
      std::uint32_t child = 2 * pos + 1;
      if (child >= n) break;
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      if (!before(heap_[child], slot)) break;
      heap_[pos] = heap_[child];
      pool_[heap_[pos]].heap_pos = pos;
      pos = child;
    }
    heap_[pos] = slot;
    pool_[slot].heap_pos = pos;
  }
  void heap_remove(std::uint32_t slot) {
    const std::uint32_t pos = pool_[slot].heap_pos;
    const std::uint32_t last = heap_.back();
    heap_.pop_back();
    if (last != slot) {
      heap_[pos] = last;
      pool_[last].heap_pos = pos;
      sift_up(pos);
      sift_down(pool_[last].heap_pos);
    }
    pool_[slot].heap_pos = kNoHeapPos;
  }
  void arm_periodic(Periodic& series, SimTime t) {
    schedule_at(t, [this, &series] {
      arm_periodic(series, now_ + series.period);
      series.fn();
    });
  }
  void schedule_next_stream_arrival() {
    const std::optional<Engine::Arrival> next = stream_();
    if (!next.has_value()) return;
    schedule_at(next->time, [this, tag = next->tag] {
      schedule_next_stream_arrival();
      on_arrival_(tag);
    });
  }

  SimTime now_ = 0;
  std::uint64_t next_generation_ = 1;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Event> pool_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> heap_;
  std::deque<Periodic> periodics_;
  Engine::ArrivalHandler on_arrival_;
  Engine::ArrivalSource stream_;
};

}  // namespace vmlp::sim::testing
