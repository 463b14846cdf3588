#include "sim/engine.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

#include "sim/debug.hpp"

namespace dpar::sim {

Engine::Engine(QueueKind kind) : queue_(std::make_unique<EventQueue>(kind, &gens_)) {}

std::uint32_t Engine::alloc_slot_() {
  if (free_head_ != 0) {
    const std::uint32_t s = free_head_ - 1;
    free_head_ = slots_[s].next_free;
    slots_[s].next_free = 0;
    return s;
  }
  if (slots_.size() == slots_.capacity()) {
    // Moving a Slot runs the callback's relocate hook per element; grow in
    // big steps so slab growth stays a rare event.
    const std::size_t cap = slots_.capacity() < 256 ? 256 : slots_.capacity() * 2;
    slots_.reserve(cap);
    gens_.reserve(cap);
  }
  slots_.emplace_back();
  gens_.push_back(1);
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Engine::free_slot_(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb.reset();
  if (++gens_[slot] == 0) gens_[slot] = 1;  // keep 0 reserved for "no event"
  s.next_free = free_head_;
  free_head_ = slot + 1;
}

EventId Engine::at(Time t, Callback cb) {
  if (t < now_) throw std::invalid_argument("Engine::at: time in the past");
  const std::uint32_t slot = alloc_slot_();
  const std::uint32_t gen = gens_[slot];
  slots_[slot].cb = std::move(cb);
  queue_->push(EventKey{t, next_seq_++, slot, gen});
  ++live_;
  return EventId{slot, gen};
}

EventId Engine::after(Time delay, Callback cb) {
  if (delay > std::numeric_limits<Time>::max() - now_)
    throw std::overflow_error(
        "Engine::after: now() + delay overflows simulated time");
  return at(now_ + delay, std::move(cb));
}

EventId Engine::at_all(Time t, std::vector<Callback> cbs) {
  if (cbs.empty()) return EventId{};
  if (cbs.size() == 1) return at(t, std::move(cbs.front()));
  return at(t, [cbs = std::move(cbs)]() mutable {
    for (auto& cb : cbs) cb();
  });
}

EventId Engine::after_all(Time delay, std::vector<Callback> cbs) {
  if (delay > std::numeric_limits<Time>::max() - now_)
    throw std::overflow_error(
        "Engine::after_all: now() + delay overflows simulated time");
  return at_all(now_ + delay, std::move(cbs));
}

bool Engine::cancel(EventId id) {
  if (!id || id.slot >= slots_.size()) return false;
  if (gens_[id.slot] != id.gen || !slots_[id.slot].cb)
    return false;  // already fired or cancelled
  free_slot_(id.slot);
  --live_;
  // The key goes stale in place — an O(1) generation kill. The queue's
  // amortized purge keeps stale keys from ever dominating memory.
  queue_->note_cancel();
  return true;
}

bool Engine::step() {
  EventKey k;
  if (!queue_->pop_min_live(k)) return false;
  // Move the callback out and free the slot *before* invoking, so the
  // callback can freely schedule into the just-freed slot (reentrancy).
  Callback cb = std::move(slots_[k.slot].cb);
  free_slot_(k.slot);
  --live_;
  assert(k.t >= now_);
  now_ = k.t;
  ++fired_;
  cb();
  return true;
}

std::uint64_t Engine::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

void Engine::run_until(Time t) {
  for (;;) {
    const Time nt = queue_->next_time();
    if (nt == kNoEventTime || nt > t) break;
    step();
  }
  if (now_ < t) now_ = t;
}

void Engine::check_invariants() const {
  queue_->check_invariants();
  // Key validity and live/stale bookkeeping against the slab.
  std::size_t live_keys = 0;
  std::size_t stale_keys = 0;
  queue_->for_each_key([&](const EventKey& k) {
    DPAR_ASSERT(k.slot < slots_.size(), "event queue: key slot out of range");
    if (gens_[k.slot] != k.gen) {
      ++stale_keys;
    } else {
      ++live_keys;
      DPAR_ASSERT(static_cast<bool>(slots_[k.slot].cb),
                  "event queue: live key whose slot has no callback");
      DPAR_ASSERT(k.t >= now_, "event queue: live key scheduled in the past");
    }
  });
  DPAR_ASSERT(live_keys == live_, "event queue: live-event count out of sync");
  DPAR_ASSERT(stale_keys == queue_->stale(),
              "event queue: stale-key count out of sync");
  DPAR_ASSERT(gens_.size() == slots_.size(),
              "event slab: generation array not parallel to slots");
  // Freelist: every link in range, no slot visited twice, no free slot
  // holding a callback.
  std::vector<bool> seen(slots_.size(), false);
  for (std::uint32_t head = free_head_; head != 0;
       head = slots_[head - 1].next_free) {
    const std::uint32_t slot = head - 1;
    DPAR_ASSERT(slot < slots_.size(), "event slab: freelist link out of range");
    DPAR_ASSERT(!seen[slot], "event slab: freelist cycle");
    DPAR_ASSERT(!slots_[slot].cb, "event slab: free slot holds a callback");
    seen[slot] = true;
  }
}

}  // namespace dpar::sim
