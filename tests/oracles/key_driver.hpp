// Engine-free key driver for the event queues: the slot-generation array,
// slot freelist and sequence counter that sim::Engine keeps around its
// queue, with no callbacks attached. It drives LadderQueue and HeapQueue
// through the same push/cancel/pop stream, so the queue differential tests
// and the queue micro-benchmarks measure the queues themselves.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace dpar::sim {

template <class Q>
class KeyDriver {
 public:
  KeyDriver() = default;
  KeyDriver(const KeyDriver&) = delete;
  KeyDriver& operator=(const KeyDriver&) = delete;

  /// Schedule a key at `t`. The returned key is its cancel handle.
  EventKey push(Time t) {
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(gens_.size());
      gens_.push_back(1);
    }
    const EventKey k{t, next_seq_++, slot, gens_[slot]};
    queue_.push(k);
    ++live_;
    return k;
  }

  /// Kill a pending key. False when it already fired or was cancelled.
  bool cancel(const EventKey& k) {
    if (gens_[k.slot] != k.gen) return false;
    release_(k.slot);
    queue_.note_cancel();
    return true;
  }

  /// Pop the earliest live key and retire its slot. False when none remain.
  bool pop(EventKey& out) {
    if (!queue_.pop_min_live(out)) return false;
    release_(out.slot);
    return true;
  }

  Time next_time() { return queue_.next_time(); }
  std::size_t live() const { return live_; }
  const Q& queue() const { return queue_; }

 private:
  void release_(std::uint32_t slot) {
    if (++gens_[slot] == 0) gens_[slot] = 1;  // 0 stays "no event"
    free_.push_back(slot);
    --live_;
  }

  std::vector<std::uint32_t> gens_;
  std::vector<std::uint32_t> free_;
  Q queue_{&gens_};
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
};

}  // namespace dpar::sim
