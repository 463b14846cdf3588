// Slab-owned fan-in completion counters.
//
// The drivers and PFS layers constantly split one logical operation into N
// sub-operations (stripes, RAID members, per-server messages, per-home cache
// transfers) and fire a continuation when the last one lands. A FanInPool is
// the owner of those counters: `open(n, done)` parks the count and the
// continuation in a record of the pool's sim::Slab and returns its u32 id;
// branches capture `{owner, id}` and call `complete(id)`. The last call moves
// the continuation out and releases the record *before* invoking it, so the
// continuation may open new fan-ins in the same pool, re-enter, or start
// unrelated work without touching a recycled record.
//
// Records are recycled (no malloc per fan-in once the slab has grown to the
// peak number in flight), and the pool destroys every record with itself: a
// fan-in still waiting when its owner is torn down mid-run is freed, not
// leaked. The historical idiom — a heap block deleted by its last branch,
// reachable only through raw pointers inside pending engine closures — leaked
// exactly those.
//
// `Acc` is an accumulator folded by the branches (fault::Status for the
// worst-outcome fan-ins of the I/O stack); `complete(id, fire)` hands it to
// `fire` together with the continuation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/slab.hpp"

namespace dpar::sim {

/// Accumulator of fan-ins that carry nothing but their count.
struct NoAcc {};

template <class Fn, class Acc = NoAcc>
class FanInPool {
 public:
  /// Open a fan-in of `n` >= 1 branches completing into `done`.
  std::uint32_t open(std::uint32_t n, Fn done, Acc acc = {}) {
    const std::uint32_t id = slab_.acquire();
    Record& r = slab_.at(id);
    r.remaining = n;
    r.acc = std::move(acc);
    r.done = std::move(done);
    return id;
  }

  /// The open fan-in's accumulator, for branches to fold into.
  Acc& acc(std::uint32_t id) { return slab_.at(id).acc; }

  /// Signal one branch finished. On the last one the record is released and
  /// `fire(done, acc)` runs on the moved-out continuation and accumulator.
  template <class Fire>
  void complete(std::uint32_t id, Fire&& fire) {
    Record& r = slab_.at(id);
    if (--r.remaining != 0) return;
    Fn done = std::move(r.done);
    Acc acc = std::move(r.acc);
    slab_.release(id);
    fire(done, acc);
  }

  /// complete() for continuations that take no arguments.
  void complete(std::uint32_t id) {
    complete(id, [](Fn& done, Acc&) { done(); });
  }

  /// Fan-ins currently open.
  std::size_t live() const { return slab_.live(); }

 private:
  struct Record {
    std::uint32_t remaining = 0;
    Acc acc{};
    Fn done;
  };
  Slab<Record> slab_;
};

}  // namespace dpar::sim
