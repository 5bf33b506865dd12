#include "sim/engine.h"

#include <algorithm>
#include <utility>

#include "common/audit.h"
#include "common/error.h"
#include "obs/collector.h"

namespace vmlp::sim {

namespace {

/// Handle ids pack (generation << 32) | slot. Generations cycle through
/// [1, 2^31-1]: never zero (0 marks a free slot / invalid handle).
std::uint64_t pack_id(std::uint64_t generation, std::uint32_t slot) {
  const std::uint64_t gen = (generation % 0x7fffffffULL) + 1;
  return (gen << 32) | slot;
}

}  // namespace

std::uint32_t Engine::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  pool_.emplace_back();
  // Slots are 32-bit (packed into the low half of the event id); the pool
  // only grows to the peak in-flight event count, but a 10^9-event schedule
  // would silently wrap the cast without this guard.
  VMLP_CHECK_MSG(pool_.size() < kNoHeapPos, "event pool exceeds 32-bit slot space");
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void Engine::release_slot(std::uint32_t slot) {
  Event& e = pool_[slot];
  e.id = 0;
  e.heap_pos = kNoHeapPos;
  e.fn = nullptr;  // release closure resources; inline storage stays pooled
  free_slots_.push_back(slot);
}

void Engine::sift_up(std::uint32_t pos) {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!before(entry, heap_[parent])) break;
    place_entry(pos, heap_[parent]);
    pos = parent;
  }
  place_entry(pos, entry);
}

void Engine::sift_down(std::uint32_t pos) {
  const HeapEntry entry = heap_[pos];
  const auto n = static_cast<std::uint32_t>(heap_.size());
  for (;;) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], entry)) break;
    place_entry(pos, heap_[child]);
    pos = child;
  }
  place_entry(pos, entry);
}

void Engine::heap_remove_at(std::uint32_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    place_entry(pos, last);
    // The replacement may need to move either direction relative to pos.
    sift_up(pos);
    sift_down(pool_[last.slot].heap_pos);
  }
}

void Engine::set_observer(obs::Collector* obs) {
  obs_ = obs;
  obs_ring_ = obs != nullptr && obs->ring_engine_events();
}

void Engine::flush_observability() {
  if (obs_ == nullptr) return;
  const auto& handles = obs_->engine();
  obs_->set_counter(handles.events_scheduled, obs_scheduled_);
  obs_->set_counter(handles.events_cancelled, obs_cancelled_);
  obs_->set_counter(handles.events_rescheduled, obs_rescheduled_);
  obs_->set_counter(handles.events_executed, executed_);
  obs_->gauge_max(handles.pending_peak, static_cast<double>(obs_pending_peak_));
}

EventHandle Engine::schedule_at(SimTime t, Callback fn) {
  VMLP_CHECK_MSG(t >= now_, "scheduling into the past: t=" << t << " now=" << now_);
  VMLP_CHECK_MSG(static_cast<bool>(fn), "null event callback");
  // A plan that propagated kTimeInfinity (e.g. a failed earliest_fit search)
  // must never reach the event queue — it would freeze simulated time at the
  // horizon with the event perpetually pending.
  VMLP_AUDIT_ASSERT(t < kTimeInfinity, "event scheduled at infinity (unresolved plan time)");
  const std::uint32_t slot = acquire_slot();
  Event& e = pool_[slot];
  e.id = pack_id(next_generation_++, slot);
  e.fn = std::move(fn);
  heap_.push_back(HeapEntry{t, next_seq_++, slot});
  sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
  if (obs_ != nullptr) {
    ++obs_scheduled_;
    if (heap_.size() > obs_pending_peak_) obs_pending_peak_ = heap_.size();
  }
  return EventHandle{e.id};
}

EventHandle Engine::schedule_after(SimDuration delay, Callback fn) {
  VMLP_CHECK_MSG(delay >= 0, "negative delay " << delay);
  return schedule_at(now_ + delay, std::move(fn));
}

void Engine::schedule_periodic(SimTime start, SimDuration period, Callback fn) {
  VMLP_CHECK_MSG(period > 0, "periodic period must be positive");
  VMLP_CHECK_MSG(static_cast<bool>(fn), "null periodic callback");
  VMLP_CHECK_MSG(start >= now_, "scheduling into the past: t=" << start << " now=" << now_);
  periodics_.push_back(Periodic{start, next_seq_++, period, std::move(fn)});
  note_scheduled();
  update_next_periodic();
}

void Engine::update_next_periodic() {
  next_periodic_ = 0;
  for (std::size_t i = 1; i < periodics_.size(); ++i) {
    const Periodic& p = periodics_[i];
    const Periodic& best = periodics_[next_periodic_];
    if (before(p.time, p.seq, best.time, best.seq)) next_periodic_ = i;
  }
}

void Engine::set_arrival_handler(ArrivalHandler fn) {
  VMLP_CHECK_MSG(static_cast<bool>(fn), "null arrival handler");
  on_arrival_ = std::move(fn);
}

void Engine::add_arrival(SimTime t, std::uint32_t tag) {
  VMLP_CHECK_MSG(t >= now_, "scheduling into the past: t=" << t << " now=" << now_);
  lane_.push_back(LaneEntry{t, next_seq_++, tag});
  note_scheduled();
}

void Engine::settle_lane() {
  // Drop the fired prefix, then merge the new tail in. Every tail entry
  // holds a later seq than every sorted one, so a stable sort and a stable
  // merge on time alone order the lane by (time, seq).
  lane_.erase(lane_.begin(), lane_.begin() + static_cast<std::ptrdiff_t>(lane_pos_));
  lane_sorted_ -= lane_pos_;
  lane_pos_ = 0;
  const auto by_time = [](const LaneEntry& a, const LaneEntry& b) { return a.time < b.time; };
  const auto mid = lane_.begin() + static_cast<std::ptrdiff_t>(lane_sorted_);
  if (!std::is_sorted(mid, lane_.end(), by_time)) std::stable_sort(mid, lane_.end(), by_time);
  std::inplace_merge(lane_.begin(), mid, lane_.end(), by_time);
  lane_sorted_ = lane_.size();
}

void Engine::stream_arrivals(ArrivalSource source) {
  VMLP_CHECK_MSG(!static_cast<bool>(stream_), "stream_arrivals() called twice");
  VMLP_CHECK_MSG(static_cast<bool>(source), "null arrival source");
  stream_ = std::move(source);
  pull_stream();
}

void Engine::pull_stream() {
  const std::optional<Arrival> next = stream_();
  if (!next.has_value()) {
    stream_head_.reset();
    return;
  }
  VMLP_CHECK_MSG(next->time >= now_,
                 "scheduling into the past: t=" << next->time << " now=" << now_);
  stream_head_ = LaneEntry{next->time, next_seq_++, next->tag};
  note_scheduled();
}

bool Engine::cancel(EventHandle handle) {
  if (!pending(handle)) return false;
  const std::uint32_t slot = slot_of(handle.id);
  const std::uint32_t pos = pool_[slot].heap_pos;
  VMLP_AUDIT_ASSERT(pos < heap_.size() && heap_[pos].slot == slot,
                    "indexed heap position out of sync for slot " << slot);
  heap_remove_at(pos);
  release_slot(slot);
  if (obs_ != nullptr) ++obs_cancelled_;
  return true;
}

bool Engine::reschedule(EventHandle handle, SimTime t) {
  if (!pending(handle)) return false;
  VMLP_CHECK_MSG(t >= now_, "rescheduling into the past: t=" << t << " now=" << now_);
  VMLP_AUDIT_ASSERT(t < kTimeInfinity, "event rescheduled to infinity (unresolved plan time)");
  const std::uint32_t pos = pool_[slot_of(handle.id)].heap_pos;
  HeapEntry& entry = heap_[pos];
  const SimTime prev = entry.time;
  entry.time = t;
  // Fresh sequence number: the rescheduled event fires after events already
  // queued at the same timestamp, matching cancel+schedule_at semantics. The
  // key therefore only grows when t >= prev, so one sift direction suffices.
  entry.seq = next_seq_++;
  if (t < prev) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
  if (obs_ != nullptr) {
    ++obs_rescheduled_;
    if (obs_ring_) {
      obs_->event(obs::DecisionKind::kEngineReschedule, now_, obs::DecisionEvent::kNoRequest,
                  obs::DecisionEvent::kNoIndex, obs::DecisionEvent::kNoIndex, t - prev);
    }
  }
  return true;
}

bool Engine::reschedule_after(EventHandle handle, SimDuration delay) {
  VMLP_CHECK_MSG(delay >= 0, "negative delay " << delay);
  return reschedule(handle, now_ + delay);
}

Engine::Source Engine::next_source(SimTime& time) {
  if (lane_sorted_ != lane_.size()) settle_lane();
  Source source = Source::kNone;
  std::uint64_t seq = 0;
  const auto consider = [&](SimTime t, std::uint64_t s, Source from) {
    if (source == Source::kNone || before(t, s, time, seq)) {
      time = t;
      seq = s;
      source = from;
    }
  };
  if (!heap_.empty()) consider(heap_[0].time, heap_[0].seq, Source::kHeap);
  if (!periodics_.empty()) {
    const Periodic& p = periodics_[next_periodic_];
    consider(p.time, p.seq, Source::kPeriodic);
  }
  if (lane_pos_ < lane_.size()) {
    const LaneEntry& a = lane_[lane_pos_];
    consider(a.time, a.seq, Source::kBulk);
  }
  if (stream_head_.has_value()) consider(stream_head_->time, stream_head_->seq, Source::kStream);
  return source;
}

void Engine::fire(Source source, SimTime t) {
  VMLP_CHECK_MSG(t >= now_, "event queue time went backwards");
  VMLP_AUDIT_ASSERT(t >= last_fired_, "event firing order not monotonic: t=" << t << " after "
                                                                              << last_fired_);
  last_fired_ = t;
  now_ = t;
  ++executed_;
  switch (source) {
    case Source::kNone: break;
    case Source::kHeap: {
      // Detach the callback and free the slot *before* invoking: the
      // callback may schedule new events, reusing this slot or growing the
      // pool (which would invalidate references into pool_).
      const std::uint32_t slot = heap_[0].slot;
      Callback fn = std::move(pool_[slot].fn);
      heap_remove_at(0);
      release_slot(slot);
      fn();
      break;
    }
    case Source::kPeriodic: {
      // Re-arm first: the next occurrence takes its seq before the body runs.
      Periodic& series = periodics_[next_periodic_];
      series.time += series.period;
      series.seq = next_seq_++;
      note_scheduled();
      update_next_periodic();
      series.fn();
      break;
    }
    case Source::kBulk:
      on_arrival_(lane_[lane_pos_++].tag);
      break;
    case Source::kStream: {
      // The successor takes its seq before this arrival's handler runs.
      const std::uint32_t tag = stream_head_->tag;
      pull_stream();
      on_arrival_(tag);
      break;
    }
  }
}

bool Engine::step() {
  SimTime t = 0;
  const Source source = next_source(t);
  if (source == Source::kNone) return false;
  fire(source, t);
  return true;
}

void Engine::run_until(SimTime horizon) {
  VMLP_CHECK_MSG(horizon >= now_, "horizon in the past");
  SimTime t = 0;
  for (Source source = next_source(t); source != Source::kNone && t <= horizon;
       source = next_source(t)) {
    fire(source, t);
  }
  now_ = horizon;
}

void Engine::run_all() {
  while (step()) {
  }
}

}  // namespace vmlp::sim
