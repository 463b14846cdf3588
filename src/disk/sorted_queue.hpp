// Flat containers backing the I/O scheduler rewrites.
//
// The schedulers used to keep requests in node-based `std::multimap`s (one
// heap node per queued request, pointer-chasing on every lower_bound) and
// per-context state in `std::map`s. The structures here replace them:
//
//  * sim::Slab<Request> (sim/slab.hpp) — chunked stable storage for queued
//    Requests. A Request carries a move-only completion callback and is 112
//    bytes; parking it in a chunk that never reallocates means each request
//    is moved exactly twice (in at enqueue, out at dispatch), with slots
//    addressed by dense u32 ids.
//  * SortedRunQueue — a sector-sorted run of 16-byte POD keys over the slab.
//    Inserts append (O(1)); the tail is sorted and merged into the run lazily
//    at the next lookup, so a burst of b arrivals between dispatches costs
//    one O(b log b + n) merge instead of b O(n) memmoves — the same
//    appended-run treatment RangeSet got in PR 1, generalized. Dispatch
//    tombstones the key and compacts when half the run is dead. Lookups use
//    the branchless lower bound, plus an O(1)-validated hint for the
//    elevator's sequential sweep.
//  * sim::SlotFifo (sim/slab.hpp) — a ring buffer (NOOP's slot FIFO,
//    deadline expiry FIFOs, CFQ's round-robin list).
//  * ContextTable — an open-addressed linear-probe table for per-context
//    scheduler state, replacing `std::map<uint64_t, Context>`. Contexts are
//    never erased (matching the map-based originals), so no tombstones.
//
// Equivalence contract with the multimap originals: a multimap iterates equal
// sector keys in insertion order and lower_bound lands on the first of them.
// SortedRunQueue keys sort by (lba, seq) with seq monotonically increasing,
// so the first live key with `lba >= head` is the same request the multimap
// would yield. The differential tests in tests/test_sched_model.cpp hold the
// flat schedulers to this bit-for-bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "disk/request.hpp"
#include "sim/slab.hpp"

namespace dpar::disk {

/// Sector-sorted request queue: lazily sorted POD keys over a stable slab.
///
/// Indices returned by pick()/index_of_slot() address the key array including
/// tombstones and are invalidated by any other mutating call; schedulers use
/// them immediately (pick-then-take within one decision).
class SortedRunQueue {
 public:
  struct Key {
    std::uint64_t lba;
    std::uint32_t seq;   ///< insertion order; tie-break for equal sectors
    std::uint32_t slot;  ///< slab slot, or kDead for a tombstone
  };

  bool empty() const { return live_ == 0; }
  std::size_t size() const { return live_; }

  /// Park `r` in a slab slot and append its key (merged lazily). Returns the
  /// slot id (stable until the request is taken).
  std::uint32_t insert(Request r) {
    const std::uint64_t lba = r.lba;
    const std::uint32_t slot = slab_.park(std::move(r));
    push_key(Key{lba, next_seq_++, slot});
    ++live_;
    return slot;
  }

  /// Index of the request the elevator serves from `head_lba`: first live key
  /// at or above the head, wrapping to the lowest sector when none (C-SCAN).
  /// Must not be called on an empty queue.
  std::size_t pick(std::uint64_t head_lba) {
    ensure_sorted();
    std::size_t i;
    // Sequential-sweep hint: after serving index k the elevator almost always
    // continues at k+1. A sorted run lets us validate the guess in O(1)
    // (predecessor below the head, successor at or above it) instead of
    // re-running the binary search on every dispatch.
    if (hint_ < keys_.size() && keys_[hint_].lba >= head_lba &&
        (hint_ == 0 || keys_[hint_ - 1].lba < head_lba)) {
      i = hint_;
    } else {
      i = lower_bound_pos(head_lba);
    }
    while (i < keys_.size() && keys_[i].slot == kDead) ++i;
    if (i == keys_.size()) {
      i = 0;
      while (keys_[i].slot == kDead) ++i;
    }
    return i;
  }

  /// First position with `lba >= x` (branchless binary search; may land on a
  /// tombstone), `size of key array` if none.
  std::size_t lower_bound_lba(std::uint64_t x) {
    ensure_sorted();
    return lower_bound_pos(x);
  }

  const Request& peek(std::size_t index) const { return slab_.at(keys_[index].slot); }

  /// Remove and return the request at key position `index` (must be live).
  /// O(1): the key becomes a tombstone; the run is compacted once half of it
  /// is dead.
  Request take(std::size_t index) {
    const std::uint32_t slot = keys_[index].slot;
    keys_[index].slot = kDead;
    hint_ = index + 1;
    ++dead_;
    --live_;
    if (dead_ > live_) compact();
    return slab_.take(slot);
  }

  /// Not-found sentinel for index_of_slot. (Key positions are not live
  /// counts: the key array includes tombstones, so size() is no bound.)
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Key position of a parked slot (binary search by its sector, then a scan
  /// over the equal-sector run). npos if not queued.
  std::size_t index_of_slot(std::uint32_t slot) {
    ensure_sorted();
    const std::uint64_t lba = slab_.at(slot).lba;
    for (std::size_t i = lower_bound_pos(lba); i < keys_.size(); ++i) {
      if (keys_[i].slot == slot) return i;
      if (keys_[i].slot != kDead && keys_[i].lba != lba) break;
    }
    return npos;
  }

  /// Bumped every time a slot is released; lets an expiry FIFO detect that
  /// the request it points at was already dispatched (or the slot reused).
  std::uint32_t generation(std::uint32_t slot) const { return slab_.generation(slot); }

 private:
  static constexpr std::uint32_t kDead = 0xffffffffu;

  static bool before(const Key& a, const Key& b) {
    return a.lba < b.lba || (a.lba == b.lba && a.seq < b.seq);
  }

  void push_key(Key k) {
    // In-order arrivals (decomposed list I/O, per-process sequential runs)
    // keep the run fully sorted and never pay for a merge.
    if (sorted_ == keys_.size() && (keys_.empty() || !before(k, keys_.back())))
      ++sorted_;
    keys_.push_back(k);
  }

  /// Sort the appended tail and merge it into the run. One O(b log b + n)
  /// pass per arrival burst, instead of b O(n) in-place insertions. The merge
  /// runs backward from the end of the key array with the sorted tail set
  /// aside in a member buffer, so it needs b keys of scratch (kept across
  /// bursts up to sim::kRetainedCapacity) and leaves the run's prefix below
  /// the tail's minimum in place. Keys are unique, so the result is the one
  /// sorted order.
  void ensure_sorted() {
    if (sorted_ == keys_.size()) return;
    const auto mid = keys_.begin() + static_cast<std::ptrdiff_t>(sorted_);
    std::sort(mid, keys_.end(), before);
    tail_.assign(mid, keys_.end());
    std::size_t run = sorted_, tail = tail_.size(), out = keys_.size();
    while (tail > 0) {
      if (run > 0 && before(tail_[tail - 1], keys_[run - 1])) {
        keys_[--out] = keys_[--run];
      } else {
        keys_[--out] = tail_[--tail];
      }
    }
    sim::clear_bounded(tail_);
    sorted_ = keys_.size();
    hint_ = npos;
  }

  void compact() {
    ensure_sorted();
    keys_.erase(std::remove_if(keys_.begin(), keys_.end(),
                               [](const Key& k) { return k.slot == kDead; }),
                keys_.end());
    sorted_ = keys_.size();
    dead_ = 0;
    hint_ = npos;
    // An empty queue can restart the tie-break counter: seq only orders keys
    // that are queued simultaneously, so u32 overflows only if 4G requests
    // pass through without the queue ever draining.
    if (keys_.empty()) next_seq_ = 0;
  }

  std::size_t lower_bound_pos(std::uint64_t x) const {
    std::size_t base = 0;
    std::size_t n = keys_.size();
    while (n > 1) {
      const std::size_t half = n / 2;
      base = (keys_[base + half - 1].lba < x) ? base + half : base;
      n -= half;
    }
    if (n == 1 && keys_[base].lba < x) ++base;
    return base;
  }

  std::vector<Key> keys_;  // sorted by (lba, seq) up to sorted_, then appends
  std::vector<Key> tail_;  // ensure_sorted's sorted tail, set aside for the merge
  sim::Slab<Request> slab_;
  std::size_t sorted_ = 0;  // keys_[0..sorted_) is sorted
  std::size_t hint_ = npos;
  std::size_t live_ = 0;
  std::size_t dead_ = 0;
  std::uint32_t next_seq_ = 0;
};

/// Open-addressed linear-probe map from context id to per-context scheduler
/// state. Insert-only (schedulers never forget a context), no iteration —
/// lookup order therefore cannot leak into simulated results.
template <class V>
class ContextTable {
 public:
  /// Find the context's state, default-constructing it on first sight.
  /// The reference is invalidated by the next find_or_insert (rehash).
  V& find_or_insert(std::uint64_t key) {
    if (entries_.empty() || (used_ + 1) * 10 >= entries_.size() * 7) grow();
    std::size_t i = probe(key);
    if (!entries_[i].used) {
      entries_[i].used = true;
      entries_[i].key = key;
      ++used_;
    }
    return entries_[i].value;
  }

  V* find(std::uint64_t key) {
    if (entries_.empty()) return nullptr;
    const std::size_t i = probe(key);
    return entries_[i].used ? &entries_[i].value : nullptr;
  }

  std::size_t size() const { return used_; }

 private:
  struct Entry {
    std::uint64_t key = 0;
    bool used = false;
    V value{};
  };

  static std::uint64_t mix(std::uint64_t k) {
    // splitmix64 finalizer: context ids are small sequential integers.
    k += 0x9e3779b97f4a7c15ull;
    k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ull;
    k = (k ^ (k >> 27)) * 0x94d049bb133111ebull;
    return k ^ (k >> 31);
  }

  /// Slot holding `key`, or the first free slot of its probe chain.
  std::size_t probe(std::uint64_t key) const {
    const std::size_t mask = entries_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix(key)) & mask;
    while (entries_[i].used && entries_[i].key != key) i = (i + 1) & mask;
    return i;
  }

  void grow() {
    std::vector<Entry> old = std::move(entries_);
    entries_.clear();
    entries_.resize(old.empty() ? 16 : old.size() * 2);
    for (Entry& e : old) {
      if (!e.used) continue;
      const std::size_t i = probe_free(e.key);
      entries_[i].used = true;
      entries_[i].key = e.key;
      entries_[i].value = std::move(e.value);
    }
  }

  std::size_t probe_free(std::uint64_t key) const {
    const std::size_t mask = entries_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix(key)) & mask;
    while (entries_[i].used) i = (i + 1) & mask;
    return i;
  }

  std::vector<Entry> entries_;
  std::size_t used_ = 0;
};

}  // namespace dpar::disk
