// Frozen event-queue oracle: the slab 4-ary min-heap the engine ran on
// before the ladder queue (sim/event_queue.hpp). O(log n) push/pop; cancelled
// keys are skipped on pop and compacted away when they reach half the heap.
// It pops live keys in the same packed (time, seq) order as LadderQueue and
// takes the same generation array, so the queue differential tests and the
// queue micro-benchmark drive both through one KeyDriver (key_driver.hpp).
// The simulator never builds it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace dpar::sim {

class HeapQueue {
 public:
  /// `gens`: key `k` is stale exactly when (*gens)[k.slot] != k.gen.
  explicit HeapQueue(const std::vector<std::uint32_t>* gens) : gens_(gens) {}

  void push(const EventKey& k) { heap_push_(k); }

  Time next_time() { return heap_next_time_(); }

  bool pop_min_live(EventKey& out) {
    if (heap_next_time_() == kNoEventTime) return false;
    out = heap_.front();
    heap_pop_min_();
    return true;
  }

  void note_cancel() {
    ++stale_;
    if (stale_ >= 64 && stale_ * 2 >= size()) heap_compact_();
  }

  std::size_t size() const { return heap_.size(); }
  std::size_t stale() const { return stale_; }

  template <class F>
  void for_each_key(F&& f) const {
    for (const EventKey& k : heap_) f(k);
  }

  /// 4-ary order and live/stale bookkeeping; aborts via DPAR_ASSERT.
  void check_invariants() const { heap_check_invariants_(); }

  /// Break the heap order so check_invariants() must abort (death test).
  void debug_corrupt_order_for_test() {
    if (heap_.size() >= 2) std::swap(heap_.front(), heap_.back());
  }

 private:
  __extension__ typedef unsigned __int128 Pri;
  static Pri pri(const EventKey& k) {
    return (static_cast<Pri>(static_cast<std::uint64_t>(k.t)) << 64) | k.seq;
  }
  static bool before(const EventKey& a, const EventKey& b) {
    return pri(a) < pri(b);
  }
  bool stale_key(const EventKey& k) const { return (*gens_)[k.slot] != k.gen; }

  // heap_queue.cpp: frozen verbatim.
  void heap_push_(const EventKey& k);
  void heap_pop_min_();
  void heap_sift_up_(std::size_t i);
  void heap_sift_down_(std::size_t i);
  void heap_rebuild_();
  void heap_compact_();
  Time heap_next_time_();
  void heap_check_invariants_() const;

  const std::vector<std::uint32_t>* gens_;
  std::size_t stale_ = 0;  ///< cancelled keys still held
  std::vector<EventKey> heap_;
};

}  // namespace dpar::sim
