// Discrete-event simulation engine.
//
// Single-threaded, deterministic: events at equal timestamps fire in
// scheduling order (a monotonically increasing sequence number breaks ties).
// Events are cancellable and *reschedulable* — the self-healing module's
// resource stretch and the driver's re-rating move in-flight completion
// events instead of cancelling and re-creating them.
//
// Three sources, merged on one (time, seq) key (DESIGN.md §7):
//  * the indexed heap — every event with a handle (schedule_at/_after). Its
//    entries carry {time, seq, slot} inline, so sifts compare keys without
//    touching the event pool, and every pending event knows its heap
//    position, so cancel() and reschedule() are O(log n) sifts instead of
//    lazy-delete tombstones;
//  * the periodic series — each holds only its next occurrence's key;
//  * the arrival lane — bulk arrivals (add_arrival) sorted by (time, seq)
//    plus the head of a streamed feed (stream_arrivals), dispatched to one
//    arrival handler. Arrivals never enter the heap, which therefore holds
//    only the in-flight events.
// Every event takes its sequence number at the moment a heap-only engine
// would have scheduled it, so the firing order is exactly that engine's.
//
// Pooled event slots: fired/cancelled events return their slot (including
// the callback's inline storage) to a free list, so steady-state scheduling
// performs no allocation for closures up to the InlineFunction buffer size.
// Handles encode (slot, generation): validity checks are two array reads, no
// hashing. Stale handles (fired/cancelled) are detected by generation
// mismatch.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "common/arena.h"
#include "common/inline_function.h"
#include "common/types.h"

namespace vmlp::obs {
class Collector;
}

namespace vmlp::sim {

/// Opaque handle to a scheduled event; value 0 is "no event".
struct EventHandle {
  std::uint64_t id = 0;
  [[nodiscard]] bool valid() const { return id != 0; }
};

class Engine {
 public:
  using Callback = InlineFunction<void(), 48>;

  /// One arrival-lane entry: when it fires and the tag its handler receives.
  struct Arrival {
    SimTime time = 0;
    std::uint32_t tag = 0;
  };
  using ArrivalHandler = InlineFunction<void(std::uint32_t), 48>;
  /// A streamed feed: the next arrival, or nullopt once drained.
  using ArrivalSource = InlineFunction<std::optional<Arrival>(), 48>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now). Returns a handle
  /// usable with cancel() / reschedule().
  EventHandle schedule_at(SimTime t, Callback fn);
  /// Schedule `fn` after `delay` from now.
  EventHandle schedule_after(SimDuration delay, Callback fn);
  /// Schedule `fn` every `period`, first firing at `start`, for the rest of
  /// the simulation. Each occurrence queues the next one before running `fn`,
  /// so an event `fn` schedules at now + period fires after that occurrence.
  void schedule_periodic(SimTime start, SimDuration period, Callback fn);

  /// The callable every arrival-lane entry fires into, with its tag.
  void set_arrival_handler(ArrivalHandler fn);
  /// Bulk feed: queue one arrival at `t` (>= now). It takes its sequence
  /// number now, exactly as schedule_at would; calls may come in any time
  /// order and may repeat across the run.
  void add_arrival(SimTime t, std::uint32_t tag);
  /// Streamed feed: pulls the first arrival now. Each later one is pulled,
  /// and takes its sequence number, when its predecessor fires and before
  /// the handler runs — the order of an arrival event that schedules its
  /// successor first. One streamed feed per engine.
  void stream_arrivals(ArrivalSource source);

  /// Cancel a pending event. Returns false if it already fired/was cancelled.
  bool cancel(EventHandle handle);
  /// True if the handle refers to a still-pending event.
  [[nodiscard]] bool pending(EventHandle handle) const {
    const std::uint32_t slot = slot_of(handle.id);
    return slot < pool_.size() && pool_[slot].id == handle.id && handle.id != 0;
  }

  /// Move a pending event to absolute time `t` (>= now), keeping its stored
  /// callback and handle — the decrease-key path for the driver's frequent
  /// re-rating reschedules. The event is re-sequenced as if freshly
  /// scheduled: among events at equal `t` it fires after those already
  /// queued, exactly matching the cancel+schedule_at idiom it replaces.
  /// Returns false (no-op) if the handle is not pending.
  bool reschedule(EventHandle handle, SimTime t);
  /// reschedule() at now + delay.
  bool reschedule_after(EventHandle handle, SimDuration delay);

  /// Run events until the queue drains or simulated time would exceed
  /// `horizon`. Time stops at `horizon` if the queue drained earlier / the
  /// next event lies beyond it.
  void run_until(SimTime horizon);
  /// Run until the queue drains completely.
  void run_all();
  /// Execute at most one event; returns false if the queue is empty.
  bool step();

  /// Every pending event: heap entries, one per periodic series, queued bulk
  /// arrivals and the streamed head.
  [[nodiscard]] std::size_t pending_events() const {
    return heap_.size() + periodics_.size() + (lane_.size() - lane_pos_) +
           (stream_head_.has_value() ? 1 : 0);
  }
  [[nodiscard]] std::uint64_t executed_events() const { return executed_; }

  /// Attach (or detach with nullptr) a telemetry collector. Recording is
  /// strictly write-only — the engine never reads it back — so attaching one
  /// cannot change event order (the zero-perturbation contract).
  void set_observer(obs::Collector* obs);
  /// Publish the accumulated engine tallies into the collector's registry.
  /// The hot paths only bump plain members (schedule/cancel/reschedule run
  /// ~once per executed event — registry indirections there cost real
  /// throughput, see the bench obs.* family); the driver calls this once at
  /// end of run. Idempotent: tallies are written as absolute values.
  void flush_observability();

 private:
  static constexpr std::uint32_t kNoHeapPos = 0xffffffffu;

  struct Event {
    std::uint64_t id = 0;  ///< full handle id; 0 = free slot
    std::uint32_t heap_pos = kNoHeapPos;
    Callback fn;
  };

  struct HeapEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  struct Periodic {
    SimTime time;  ///< next occurrence
    std::uint64_t seq;
    SimDuration period;
    Callback fn;
  };

  struct LaneEntry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t tag;
  };

  enum class Source : std::uint8_t { kNone, kHeap, kPeriodic, kBulk, kStream };

  static std::uint32_t slot_of(std::uint64_t id) {
    return static_cast<std::uint32_t>(id & 0xffffffffu);
  }

  /// Strict (time, seq) order shared by all three sources.
  static bool before(SimTime ta, std::uint64_t sa, SimTime tb, std::uint64_t sb) {
    return ta != tb ? ta < tb : sa < sb;
  }
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    return before(a.time, a.seq, b.time, b.seq);
  }

  /// The source holding the earliest pending event, and its time.
  Source next_source(SimTime& time);
  /// Fire the earliest event of `source` (not kNone), due at `t`.
  void fire(Source source, SimTime t);

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void place_entry(std::uint32_t pos, const HeapEntry& entry) {
    heap_[pos] = entry;
    pool_[entry.slot].heap_pos = pos;
  }
  void heap_remove_at(std::uint32_t pos);
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);
  /// Index of the periodic series whose occurrence is due first.
  void update_next_periodic();
  /// Stable-merge the bulk arrivals added since the last settle into the
  /// sorted lane.
  void settle_lane();
  /// Pull the streamed feed's next arrival into stream_head_.
  void pull_stream();
  void note_scheduled() {
    if (obs_ != nullptr) ++obs_scheduled_;
  }

  SimTime now_ = 0;
  SimTime last_fired_ = 0;  // audit bookkeeping: firing-order monotonicity
  std::uint64_t next_generation_ = 1;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  obs::Collector* obs_ = nullptr;           ///< optional telemetry sink (write-only)
  bool obs_ring_ = false;                   ///< cached Params::ring_engine_events
  // Telemetry tallies, flushed by flush_observability(); only tracked while
  // an observer is attached.
  std::uint64_t obs_scheduled_ = 0;
  std::uint64_t obs_cancelled_ = 0;
  std::uint64_t obs_rescheduled_ = 0;
  std::size_t obs_pending_peak_ = 0;  ///< heap high-water mark (in-flight events)
  // The hot arrays are arena-backed: an Engine constructed inside a shard's
  // ShardArena::Scope grows them from the lane-local arena instead of the
  // (contended) global allocator. Outside a scope they are plain heap
  // vectors. The Engine must not outlive the arena it was constructed under —
  // the trial runner guarantees this by scoping both to one trial.
  ArenaVector<Event> pool_;                 ///< slot-indexed event storage
  ArenaVector<std::uint32_t> free_slots_;   ///< reusable pool slots
  ArenaVector<HeapEntry> heap_;             ///< binary min-heap on (time, seq)
  /// Periodic series, never removed; a deque keeps each one at a stable
  /// address while its body runs (the body may add a series). Cold path: a
  /// handful per simulation, scanned linearly.
  std::deque<Periodic> periodics_;
  std::size_t next_periodic_ = 0;
  /// Bulk arrivals: [lane_pos_, lane_sorted_) is sorted by (time, seq) and
  /// not yet fired; [lane_sorted_, end) was added since the last settle.
  ArenaVector<LaneEntry> lane_;
  std::size_t lane_pos_ = 0;
  std::size_t lane_sorted_ = 0;
  ArrivalSource stream_;
  std::optional<LaneEntry> stream_head_;
  ArrivalHandler on_arrival_;
};

}  // namespace vmlp::sim
