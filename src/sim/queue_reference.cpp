// Reference event queue: the slab 4-ary min-heap, frozen verbatim from the
// pre-ladder engine (PR 1's layout: shallower than binary, cache-line
// friendly children, amortized stale-key compaction). Kept as the
// differential oracle the ladder queue is byte-compared against — in the
// randomized queue tests, the engine-level differential test, and the
// queue micro-benchmark's ratio gate.
// Do not "improve" this file; its behaviour is the contract.
#include "sim/event_queue.hpp"

#include "sim/debug.hpp"

namespace dpar::sim {

void EventQueue::heap_push_(const EventKey& k) {
  heap_.push_back(k);
  heap_sift_up_(heap_.size() - 1);
}

void EventQueue::heap_pop_min_() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) heap_sift_down_(0);
}

void EventQueue::heap_sift_up_(std::size_t i) {
  const EventKey k = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(k, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

void EventQueue::heap_sift_down_(std::size_t i) {
  const std::size_t n = heap_.size();
  const EventKey k = heap_[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c)
      if (before(heap_[c], heap_[best])) best = c;
    if (!before(heap_[best], k)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = k;
}

/// Restore the heap property bottom-up (Floyd): only internal nodes sift.
/// O(n) regardless of how disordered the keys are.
void EventQueue::heap_rebuild_() {
  if (heap_.size() > 1)
    for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;)
      heap_sift_down_(i);
}

void EventQueue::heap_compact_() {
  std::size_t out = 0;
  for (std::size_t i = 0; i < heap_.size(); ++i)
    if (!stale_key(heap_[i])) heap_[out++] = heap_[i];
  heap_.resize(out);
  heap_rebuild_();
  stale_ = 0;
  DPAR_IF_CHECKING(heap_check_invariants_());
}

/// Drop stale keys off the top; the earliest live event time, or
/// kNoEventTime.
Time EventQueue::heap_next_time_() {
  while (!heap_.empty() && stale_key(heap_.front())) {
    heap_pop_min_();
    --stale_;
  }
  return heap_.empty() ? kNoEventTime : heap_.front().t;
}

void EventQueue::heap_check_invariants_() const {
  // Heap property: no child orders before its parent.
  for (std::size_t i = 1; i < heap_.size(); ++i)
    DPAR_ASSERT(!before(heap_[i], heap_[(i - 1) / 4]),
                "event heap: child precedes its parent");
  std::size_t stale_keys = 0;
  for (const EventKey& k : heap_) {
    DPAR_ASSERT(k.slot < gens_->size(), "event heap: key slot out of range");
    DPAR_ASSERT(k.gen != 0, "event heap: key with reserved generation 0");
    if (stale_key(k)) ++stale_keys;
  }
  DPAR_ASSERT(stale_keys == stale_, "event heap: stale-key count out of sync");
}

}  // namespace dpar::sim
