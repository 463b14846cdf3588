// Discrete-event simulation engine.
//
// A single-threaded event loop over (time, sequence) ordered callbacks.
// Sequence numbers break ties so that two events scheduled for the same
// instant always fire in scheduling order, which makes every run
// deterministic. Independent experiments run in parallel one engine each
// (harness::ExperimentPool); a single experiment never spans threads.
//
// Hot-path design (the whole simulator runs through here):
//  * Callbacks are `UniqueFunction`s with a 48-byte small buffer. The request
//    path's closures capture `{owner, slab slot}` plus a few scalars — the
//    records they refer to live in their owners' sim::Slab — and are built
//    through `inline_fn`, so a capture that would spill fails to compile.
//    Once the slot slab and the queue's capacity-keeping buckets have grown
//    to a run's working set, schedule/fire/cancel never touches the
//    allocator (tests/alloc/test_alloc.cpp counts it).
//  * Events live in a free-listed slab; `EventId` is a generation-tagged slot
//    index, so `cancel()` is an O(1) validity check that frees the slot (and
//    destroys the callback) immediately — no hash sets, no deferred cleanup.
//  * The (time, seq, slot, gen) keys live in a tiered EventQueue
//    (event_queue.hpp): a ladder/timer-wheel structure whose buckets are
//    sorted only at drain and whose cancels never trigger any re-sorting.
//    Cancelled events leave a stale key behind that is skipped on pop and
//    reclaimed by an amortized linear purge, so cancel-heavy workloads stay
//    bounded in memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/func.hpp"
#include "sim/time.hpp"

namespace dpar::sim {

/// Handle for a scheduled event; usable to cancel it before it fires.
/// A generation-tagged slot index: stale handles (fired, cancelled, or from
/// a reused slot) are detected in O(1) and never alias a newer event.
struct EventId {
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;  ///< 0 means "no event" (live slots have gen >= 1).
  explicit operator bool() const { return gen != 0; }
};

class Engine {
 public:
  using Callback = UniqueFunction;

  /// The simulator always runs on the ladder queue. `kind` exists so the
  /// queue differential tests and the queue micro-benchmark can run the
  /// same engine over the frozen heap oracle (see event_queue.hpp).
  explicit Engine(QueueKind kind = QueueKind::kLadder);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Schedule `cb` at absolute time `t` (must be >= now()).
  EventId at(Time t, Callback cb);

  /// Schedule `cb` after `delay` nanoseconds from now. Throws
  /// std::overflow_error when `now() + delay` would overflow simulated time.
  EventId after(Time delay, Callback cb);

  /// Schedule ONE event at `t` that fires every callback in order. Equivalent
  /// to scheduling each callback at `t` back-to-back — their sequence numbers
  /// would be consecutive, so no other event can interleave — but it costs a
  /// single queue entry. Used to coalesce barrier releases and collective
  /// round completions (one completion per round instead of one per rank).
  /// Returns the empty id for an empty batch; the batch as a whole is
  /// cancellable via the returned id.
  EventId at_all(Time t, std::vector<Callback> cbs);
  EventId after_all(Time delay, std::vector<Callback> cbs);

  /// Cancel a pending event. Returns false if it already fired, was already
  /// cancelled, or `id` is empty. The event's slot and callback are reclaimed
  /// immediately (and the slot becomes reusable), even for far-future events.
  bool cancel(EventId id);

  /// Current simulated time.
  Time now() const { return now_; }

  /// Fire the next event. Returns false when no events remain.
  bool step();

  /// Run until the queue drains or `max_events` have fired.
  /// Returns the number of events fired.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Run events with time <= t, then advance the clock to exactly t.
  void run_until(Time t);

  /// True when no live events are pending.
  bool empty() const { return live_ == 0; }

  /// Number of events fired so far (for perf accounting and tests).
  std::uint64_t events_fired() const { return fired_; }

  /// Live (scheduled, not yet fired or cancelled) events.
  std::size_t live_events() const { return live_; }

  /// Slab capacity in slots — grows to the peak number of simultaneously
  /// live events and is then reused; regression-tested to stay flat under
  /// schedule/cancel churn.
  std::size_t slab_slots() const { return slots_.size(); }

  /// Queue keys, including stale keys of cancelled events awaiting the
  /// amortized purge (bounded at ~2x live_events()).
  std::size_t queue_depth() const { return queue_->size(); }

  /// Full structural validation (debug invariant layer): queue ordering
  /// (ladder bucket monotonicity / heap property), generation-tag validity
  /// of every live key, live/stale bookkeeping, and freelist consistency.
  /// Aborts via DPAR_ASSERT on violation. Called automatically after every
  /// purge when DPAR_CHECK_INVARIANTS is compiled in, and directly by tests.
  void check_invariants() const;

 private:
  struct Slot {
    Callback cb;
    std::uint32_t next_free = 0;  ///< freelist link (index + 1; 0 = none).
  };

  std::uint32_t alloc_slot_();
  void free_slot_(std::uint32_t slot);

  std::vector<Slot> slots_;  ///< slab of callbacks, free-listed.
  /// Slot generations, parallel to slots_ (bumped on every free; tags
  /// EventId/EventKey). Kept out of Slot so stale-key checks and purges scan
  /// a dense u32 array instead of striding over fat callback slots. The
  /// queue captures its address at construction.
  std::vector<std::uint32_t> gens_;
  /// Tiered (time, seq) key queue; see event_queue.hpp. Out of line because
  /// its timer wheel is ~6 KB: held inline, it made a stack-built Testbed
  /// ~7% slower to set up.
  std::unique_ptr<EventQueue> queue_;
  std::uint32_t free_head_ = 0;  ///< freelist head (index + 1; 0 = empty).
  std::size_t live_ = 0;
  Time now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t fired_ = 0;
};

}  // namespace dpar::sim
