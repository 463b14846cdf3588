// The engine's event queue: a ladder over a hierarchical timer wheel.
//
// The engine owns one LadderQueue holding (time, seq, slot, gen) keys: a
// near-future ladder backed by a hierarchical timer wheel and an unsorted
// far-future tail (event_queue.cpp). Keys within the current ~1 us bucket
// sit in a small sorted front heap; the next ~64 us spread over 64
// fixed-width level-0 buckets that are sorted only when drained; three
// coarser wheel levels with 64x-wider slots cover ~17 s, and everything
// beyond lands in the tail. push is O(1) amortized (bucket append +
// occupancy bit), pop moves each key through at most one cascade per level.
// Cancel never sorts or sifts anything: the generation tag goes stale in
// place and an amortized linear purge keeps memory bounded — no compaction
// storms under cancel-heavy timer traffic.
//
// Live keys pop in exactly the packed 128-bit (time, seq) total order. The
// frozen 4-ary heap this queue replaced is kept as its differential oracle
// in tests/oracles/heap_queue.hpp; nothing in src/ builds it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/slab.hpp"
#include "sim/time.hpp"

namespace dpar::sim {

/// "No pending event" sentinel returned by LadderQueue::next_time().
constexpr Time kNoEventTime = std::numeric_limits<Time>::max();

/// One scheduled event: fire time, global-order tie-breaker, and the
/// generation-tagged slab slot holding its callback. The queue never looks
/// at the callback — staleness is decided entirely by the owning engine's
/// generation array.
struct EventKey {
  Time t;
  std::uint64_t seq;
  std::uint32_t slot;
  std::uint32_t gen;
};

class LadderQueue {
 public:
  /// `gens` is the owning engine's slot-generation array: key `k` is stale
  /// (cancelled or superseded) exactly when (*gens)[k.slot] != k.gen. The
  /// pointer must outlive the queue; the vector may grow/reallocate freely.
  explicit LadderQueue(const std::vector<std::uint32_t>* gens) : gens_(gens) {}

  LadderQueue(LadderQueue&&) = default;
  LadderQueue& operator=(LadderQueue&&) = default;
  LadderQueue(const LadderQueue&) = delete;
  LadderQueue& operator=(const LadderQueue&) = delete;

  /// Insert one key. Keys must be unique and carry strictly increasing seq
  /// per (t) from the owning engine's counter.
  void push(const EventKey& k);

  /// Earliest live key's time, or kNoEventTime when none is pending.
  /// Drops leading stale keys as a side effect.
  Time next_time();

  /// Pop the earliest live key into `out`. False when no live key remains.
  bool pop_min_live(EventKey& out);

  /// The owning engine cancelled a key (its generation was bumped). O(1):
  /// bumps the stale count and, past the amortized threshold, purges every
  /// stale key with one linear filter pass — no per-cancel sifting.
  void note_cancel();

  /// Total keys held, including stale keys awaiting the amortized purge
  /// (bounded at ~2x the live count by the purge threshold).
  std::size_t size() const { return size_; }
  std::size_t stale() const { return stale_; }

  /// Largest key storage (capacity) held by an empty wheel bucket, an empty
  /// tail or the spill buffer. At most kRetainedCapacity once a burst has
  /// drained: the retention cap the memory bound rests on.
  std::size_t idle_capacity() const;

  /// Visit every key (live and stale) in unspecified order — the owning
  /// engine's invariant checks validate slot/callback agreement through this.
  template <class F>
  void for_each_key(F&& f) const {
    for (const EventKey& k : front_) f(k);
    for (const Level& lvl : levels_)
      for (const auto& bucket : lvl.buckets)
        for (const EventKey& k : bucket) f(k);
    for (const EventKey& k : tail_) f(k);
  }

  /// Structural validation (debug invariant layer): bucket monotonicity —
  /// every live front key lies in the floor's bucket, no live key is
  /// stranded in a wheel slot behind its level's cursor, occupancy bits
  /// agree with bucket contents, the tail minimum is a sound lower bound —
  /// and the size/stale counts. Aborts via DPAR_ASSERT on violation.
  void check_invariants() const;

  /// Test-only corruption hook for the invariant death test: strand the
  /// front bucket behind an advanced floor, so check_invariants() must abort.
  void debug_strand_front_for_test();

 private:
  // (t, seq) packed into one 128-bit value: a single branchless compare.
  // Valid because t >= 0 always (scheduling rejects the past), so the
  // int64 -> uint64 cast preserves order. __extension__ keeps -Wpedantic
  // (and thus the -Werror CI builds) quiet about the GNU type.
  __extension__ typedef unsigned __int128 Pri;
  static Pri pri(const EventKey& k) {
    return (static_cast<Pri>(static_cast<std::uint64_t>(k.t)) << 64) | k.seq;
  }
  static bool before(const EventKey& a, const EventKey& b) {
    return pri(a) < pri(b);
  }
  bool stale_key(const EventKey& k) const { return (*gens_)[k.slot] != k.gen; }

  // Power-of-two geometry: level i spans 64 slots of 2^(10 + 6i) ns each.
  // Level 0 buckets are ~1 us wide (64 us wheel span); level 3 slots are
  // ~268 ms (17.2 s total span). Beyond that, keys wait in the unsorted tail.
  static constexpr int kLevels = 4;
  static constexpr int kSlotBits = 6;
  static constexpr int kSlotsPerLevel = 1 << kSlotBits;  // 64
  static constexpr int kBucketShift = 10;                // 1024 ns buckets
  static constexpr std::size_t kFirstBucketKeys = 8;     // first reservation
  static std::uint64_t slot_of_(Time t, int level) {
    return static_cast<std::uint64_t>(t) >> (kBucketShift + kSlotBits * level);
  }
  void place_(const EventKey& k);  ///< placement only; no counting
  void sweep_front_bucket_();  ///< merge the floor's L0 bucket into the front
  void purge_stale_();
  /// End a drain of `tier` through spill_: return the tier's storage to it
  /// and keep at most kRetainedCapacity keys of idle storage (sim/slab.hpp).
  void finish_drain_(std::vector<EventKey>& tier);
  void front_push_(const EventKey& k);
  void front_pop_();
  void front_sift_down_(std::size_t i);
  void front_rebuild_();

  struct Level {
    std::array<std::vector<EventKey>, kSlotsPerLevel> buckets;
    std::uint64_t occupied = 0;  ///< bit i set iff buckets[i] is non-empty
  };

  const std::vector<std::uint32_t>* gens_;
  std::size_t stale_ = 0;  ///< cancelled keys still held

  // floor_ anchors every tier: front keys share its level-0 bucket, wheel
  // keys sit at or past their level's cursor slot, tail keys lie beyond the
  // wheel span (as of their insertion floor).
  std::vector<EventKey> front_;  ///< 4-ary min-heap of the current bucket
  std::array<Level, kLevels> levels_;
  std::vector<EventKey> tail_;
  /// Drain buffer: a draining bucket (or the tail, or the front on a rewind)
  /// is swapped into it and re-filed from it; finish_drain_ then hands the
  /// tier its storage back, so no tier regrows from zero capacity.
  std::vector<EventKey> spill_;
  Time tail_min_ = kNoEventTime;  ///< lower bound on live tail keys
  Time floor_ = 0;
  std::size_t size_ = 0;  ///< total keys across front/levels/tail
};

}  // namespace dpar::sim
