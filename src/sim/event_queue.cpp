// Ladder/timer-wheel event queue (see event_queue.hpp for the tier map) and
// the kind dispatch shared by both arms.
//
// Geometry and movement rules:
//
//  * Absolute slot numbers: slot_of_(t, i) = t >> (10 + 6i). floor_ is the
//    queue's cursor; the *front* heap holds exactly the keys sharing
//    floor_'s level-0 bucket, level i holds keys whose level-i slot lies
//    within 64 slots of floor_'s, and the tail holds everything farther
//    out (relative to the floor at their insertion).
//  * Insert walks the levels finest-first and stops at the first one whose
//    window covers the key, so a key is always filed at the finest
//    granularity that can hold it. A key beyond the level-(i-1) window is
//    always *past* level i's cursor slot (64 fine slots span at least one
//    coarse boundary), so inserts never land in a slot the cursor already
//    passed.
//  * Refill (front empty): pick the earliest candidate across tiers — per
//    level, the first occupied slot in cyclic cursor order via one
//    occupancy-bitmask rotate; for the tail, its cached minimum. Ties go
//    to the coarsest tier so its keys cascade down before any finer bucket
//    is drained (overlapping ranges interleave in time). A level-0 winner
//    advances the floor and heapifies the bucket into the front; a coarser
//    winner advances the floor to the slot's start and re-files each key,
//    now at finer granularity; a tail winner re-files the whole tail (the
//    tail is compared at bucket granularity so the floor never enters
//    tail_min_'s bucket with the key still in the tail). After every floor
//    move the floor's bucket is swept out of the wheel into the front —
//    tied finer slots are never cascaded by the tie rule, and their keys
//    would otherwise be shadowed by the freshly filled front (see
//    sweep_front_bucket_). Stale keys are dropped for free at every hop.
//  * A key may land *behind* the floor: a next_time() peek (run_until)
//    advances the floor to the next key's bucket while the clock stays
//    behind it, and the caller may then schedule at the clock.
//    The floor then rewinds to the key and the front bucket is re-filed.
//    Wheel keys stay put: their slot indices now alias one wrap later, so
//    a refill may reconstruct a too-early candidate — harmless, the
//    cascade re-files those keys at their true position and the occupancy
//    bit clears either way, so progress holds.
#include "sim/event_queue.hpp"

#include <utility>

#include "sim/debug.hpp"

namespace dpar::sim {

EventQueue::EventQueue(QueueKind kind, const std::vector<std::uint32_t>* gens)
    : kind_(kind), gens_(gens) {}

// ---- kind dispatch ---------------------------------------------------------

void EventQueue::push(const EventKey& k) {
  if (kind_ == QueueKind::kHeap)
    heap_push_(k);
  else
    ladder_push_(k);
}

Time EventQueue::next_time() {
  return kind_ == QueueKind::kHeap ? heap_next_time_() : ladder_next_time_();
}

bool EventQueue::pop_min_live(EventKey& out) {
  if (kind_ == QueueKind::kHeap) {
    if (heap_next_time_() == kNoEventTime) return false;
    out = heap_.front();
    heap_pop_min_();
    return true;
  }
  if (ladder_next_time_() == kNoEventTime) return false;
  out = front_.front();
  front_pop_();
  --lq_size_;
  return true;
}

void EventQueue::note_cancel() {
  ++stale_;
  // Amortized cleanup: never let cancelled keys dominate the queue. Same
  // threshold either arm; the heap compacts (filter + Floyd rebuild), the
  // ladder purges (pure linear filters — nothing is ever re-sorted).
  if (stale_ >= 64 && stale_ * 2 >= size()) {
    if (kind_ == QueueKind::kHeap)
      heap_compact_();
    else
      ladder_purge_stale_();
  }
}

void EventQueue::check_invariants() const {
  if (kind_ == QueueKind::kHeap)
    heap_check_invariants_();
  else
    ladder_check_invariants_();
}

void EventQueue::debug_corrupt_order_for_test() {
  if (kind_ == QueueKind::kHeap) {
    if (heap_.size() >= 2) std::swap(heap_.front(), heap_.back());
    return;
  }
  if (front_.size() >= 2) std::swap(front_.front(), front_.back());
}

void EventQueue::debug_strand_front_for_test() {
  // Jump the floor a whole level-0 wheel span ahead: any live front key is
  // now stranded behind the cursor and check_invariants() must abort.
  floor_ += Time{kSlotsPerLevel} << kBucketShift;
}

// ---- ladder arm ------------------------------------------------------------

void EventQueue::front_push_(const EventKey& k) {
  front_.push_back(k);
  std::size_t i = front_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(k, front_[parent])) break;
    front_[i] = front_[parent];
    i = parent;
  }
  front_[i] = k;
}

void EventQueue::front_pop_() {
  front_.front() = front_.back();
  front_.pop_back();
  if (!front_.empty()) front_sift_down_(0);
}

void EventQueue::front_sift_down_(std::size_t i) {
  const std::size_t n = front_.size();
  const EventKey k = front_[i];
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c)
      if (before(front_[c], front_[best])) best = c;
    if (!before(front_[best], k)) break;
    front_[i] = front_[best];
    i = best;
  }
  front_[i] = k;
}

void EventQueue::front_rebuild_() {
  if (front_.size() > 1)
    for (std::size_t i = (front_.size() - 2) / 4 + 1; i-- > 0;)
      front_sift_down_(i);
}

void EventQueue::ladder_place_(const EventKey& k) {
  const std::uint64_t f0 = slot_of_(floor_, 0);
  const std::uint64_t k0 = slot_of_(k.t, 0);
  if (k0 == f0) {
    front_push_(k);
    return;
  }
  for (int lvl = 0; lvl < kLevels; ++lvl) {
    const std::uint64_t ks = slot_of_(k.t, lvl);
    if (ks - slot_of_(floor_, lvl) < kSlotsPerLevel) {
      const unsigned idx = ks & (kSlotsPerLevel - 1);
      std::vector<EventKey>& bucket = levels_[lvl].buckets[idx];
      // A bucket's first key reserves room for a few: most buckets never
      // hold more, so they allocate once instead of growing 1, 2, 4, 8 and
      // creeping upward over a long run.
      if (bucket.capacity() == 0) bucket.reserve(kFirstBucketKeys);
      bucket.push_back(k);
      levels_[lvl].occupied |= std::uint64_t{1} << idx;
      return;
    }
  }
  tail_.push_back(k);
  if (k.t < tail_min_) tail_min_ = k.t;
}

void EventQueue::ladder_push_(const EventKey& k) {
  if (lq_size_ == 0) {
    // Empty queue: re-anchor the cursor on the key so it files as front.
    floor_ = k.t;
  } else if (slot_of_(k.t, 0) < slot_of_(floor_, 0)) {
    // The key precedes the cursor's bucket (scheduled behind a floor a
    // next_time() peek advanced). Rewind: the front bucket is no longer current, so
    // re-file its keys relative to the new floor.
    spill_.swap(front_);
    floor_ = k.t;
    for (const EventKey& s : spill_) {
      if (stale_key(s)) {
        --stale_;
        --lq_size_;
      } else {
        ladder_place_(s);
      }
    }
    finish_drain_(front_);
  }
  ladder_place_(k);
  ++lq_size_;
}

void EventQueue::sweep_front_bucket_() {
  // The floor's level-0 bucket IS the front: whenever a refill moves (or
  // keeps) the cursor, every live key sharing that bucket must sit in the
  // front heap before the refill returns. Keys of that bucket can hide in
  // the wheel at ANY level — a coarse slot whose start ties the winner's
  // start is never cascaded by the tie rule (the coarsest candidate wins
  // and fills the front, so the finer twin at the same start survives with
  // the front non-empty). Left behind, such keys would surface only after
  // the front drained: a late, out-of-order pop. Each level can hold them
  // only in its bucket at the floor's own slot, so one bucket per level is
  // scanned; aliased keys (true slot a wrap ahead, possible after a
  // rewind) are far ahead of the floor bucket and stay put.
  const std::uint64_t f0 = slot_of_(floor_, 0);
  for (int l = 0; l < kLevels; ++l) {
    Level& lvl = levels_[l];
    const unsigned idx = slot_of_(floor_, l) & (kSlotsPerLevel - 1);
    if ((lvl.occupied & (std::uint64_t{1} << idx)) == 0) continue;
    std::vector<EventKey>& b = lvl.buckets[idx];
    std::size_t out = 0;
    for (const EventKey& k : b) {
      if (stale_key(k)) {
        --stale_;
        --lq_size_;
      } else if (slot_of_(k.t, 0) == f0) {
        front_push_(k);
      } else {
        b[out++] = k;
      }
    }
    b.resize(out);
    if (b.empty()) {
      lvl.occupied &= ~(std::uint64_t{1} << idx);
      clear_bounded(b);
    }
  }
}

Time EventQueue::ladder_next_time_() {
  for (;;) {
    while (!front_.empty() && stale_key(front_.front())) {
      front_pop_();
      --stale_;
      --lq_size_;
    }
    if (!front_.empty()) return front_.front().t;
    if (lq_size_ == 0) return kNoEventTime;

    // Earliest candidate across the wheel levels (first occupied slot in
    // cyclic cursor order; one rotate + count-trailing-zeros per level) and
    // the tail. Ties prefer the coarsest tier — iterate finest-first with
    // <= so a coarse slot overlapping a fine bucket cascades down before
    // the bucket drains.
    int best_lvl = -1;
    std::uint64_t best_slot = 0;
    Time best_start = kNoEventTime;
    for (int lvl = 0; lvl < kLevels; ++lvl) {
      const std::uint64_t occ = levels_[lvl].occupied;
      if (occ == 0) continue;
      const std::uint64_t fs = slot_of_(floor_, lvl);
      const unsigned fi = fs & (kSlotsPerLevel - 1);
      const std::uint64_t rot =
          (occ >> fi) | (fi != 0 ? occ << (kSlotsPerLevel - fi) : 0);
      const auto d = static_cast<unsigned>(__builtin_ctzll(rot));
      const std::uint64_t abs_slot = fs + d;
      const Time start =
          static_cast<Time>(abs_slot << (kBucketShift + kSlotBits * lvl));
      if (start <= best_start) {
        best_start = start;
        best_lvl = lvl;
        best_slot = abs_slot;
      }
    }

    if (!tail_.empty() && slot_of_(tail_min_, 0) <= slot_of_(best_start, 0)) {
      // Tail refill: advance the cursor to the tail's minimum and re-file
      // every key — the near ones spread into the wheel, the far ones
      // rebuild the tail (with an exact new minimum), stale ones vanish.
      // Compared at bucket granularity: a wheel candidate earlier in the
      // SAME bucket as tail_min_ must not win, or the floor would enter
      // the tail key's bucket with the key still in the tail — it would
      // then pop after later keys from that bucket's front.
      if (tail_min_ > floor_) floor_ = tail_min_;
      sweep_front_bucket_();
      spill_.swap(tail_);
      tail_min_ = kNoEventTime;
      for (const EventKey& s : spill_) {
        if (stale_key(s)) {
          --stale_;
          --lq_size_;
        } else {
          ladder_place_(s);
        }
      }
      finish_drain_(tail_);
      continue;
    }
    if (best_lvl < 0) return kNoEventTime;  // unreachable: lq_size_ > 0

    const unsigned idx = best_slot & (kSlotsPerLevel - 1);
    std::vector<EventKey>& bucket = levels_[best_lvl].buckets[idx];
    spill_.swap(bucket);
    levels_[best_lvl].occupied &= ~(std::uint64_t{1} << idx);
    if (best_start > floor_) floor_ = best_start;
    // A coarse winner whose start ties a finer occupied slot advances the
    // cursor into that slot without cascading it; any keys of the floor's
    // new bucket hiding there must join the front alongside the cascade or
    // they would pop late.
    sweep_front_bucket_();
    for (const EventKey& s : spill_) {
      if (stale_key(s)) {
        --stale_;
        --lq_size_;
      } else if (best_lvl == 0 && slot_of_(s.t, 0) == best_slot) {
        front_push_(s);  // the winning bucket becomes the sorted front
      } else {
        ladder_place_(s);  // cascade down (or re-file a wrapped key)
      }
    }
    finish_drain_(bucket);
  }
}

void EventQueue::finish_drain_(std::vector<EventKey>& tier) {
  // The swap lent the spill buffer's storage to the tier (for keys re-filed
  // into it, which is rare) while the tier's keys were walked from spill_.
  // Swap back when the tier stayed empty, so every tier keeps the storage
  // it grew — no buffer circulates between tiers — and drop storage a burst
  // grew past the retention cap.
  spill_.clear();
  if (tier.empty()) {
    tier.swap(spill_);
    clear_bounded(tier);
  }
  clear_bounded(spill_);
}

void EventQueue::ladder_purge_stale_() {
  std::size_t removed = 0;
  auto filter = [&](std::vector<EventKey>& v) {
    std::size_t out = 0;
    for (std::size_t i = 0; i < v.size(); ++i)
      if (!stale_key(v[i])) v[out++] = v[i];
    removed += v.size() - out;
    v.resize(out);
  };
  filter(front_);
  front_rebuild_();
  for (Level& lvl : levels_) {
    if (lvl.occupied == 0) continue;
    for (unsigned idx = 0; idx < kSlotsPerLevel; ++idx) {
      if ((lvl.occupied & (std::uint64_t{1} << idx)) == 0) continue;
      filter(lvl.buckets[idx]);
      if (lvl.buckets[idx].empty()) {
        lvl.occupied &= ~(std::uint64_t{1} << idx);
        clear_bounded(lvl.buckets[idx]);
      }
    }
  }
  filter(tail_);
  if (tail_.empty()) clear_bounded(tail_);
  tail_min_ = kNoEventTime;
  for (const EventKey& k : tail_)
    if (k.t < tail_min_) tail_min_ = k.t;
  lq_size_ -= removed;
  stale_ = 0;
  DPAR_IF_CHECKING(ladder_check_invariants_());
}

std::size_t EventQueue::idle_capacity() const {
  std::size_t most = spill_.capacity();
  if (tail_.empty() && tail_.capacity() > most) most = tail_.capacity();
  for (const Level& lvl : levels_)
    for (const auto& bucket : lvl.buckets)
      if (bucket.empty() && bucket.capacity() > most) most = bucket.capacity();
  return most;
}

void EventQueue::ladder_check_invariants_() const {
  std::size_t counted = 0;
  std::size_t stale_keys = 0;
  auto count = [&](const EventKey& k) {
    DPAR_ASSERT(k.slot < gens_->size(), "ladder queue: key slot out of range");
    DPAR_ASSERT(k.gen != 0, "ladder queue: key with reserved generation 0");
    ++counted;
    if (stale_key(k)) ++stale_keys;
  };
  // Front: heap order, and every live key in the floor's bucket.
  for (std::size_t i = 1; i < front_.size(); ++i)
    DPAR_ASSERT(!before(front_[i], front_[(i - 1) / 4]),
                "ladder queue: front child precedes its parent");
  for (const EventKey& k : front_) {
    count(k);
    if (!stale_key(k))
      DPAR_ASSERT(slot_of_(k.t, 0) == slot_of_(floor_, 0),
                  "ladder queue: live front key outside the floor bucket");
  }
  // Wheel levels: occupancy bits agree with bucket contents, and no live
  // key is stranded behind its level's cursor (a stranded key would fire
  // late — the "no live event past its bucket" monotonicity invariant).
  for (int lvl = 0; lvl < kLevels; ++lvl) {
    const Level& L = levels_[lvl];
    for (unsigned idx = 0; idx < kSlotsPerLevel; ++idx) {
      const bool bit = (L.occupied & (std::uint64_t{1} << idx)) != 0;
      DPAR_ASSERT(bit == !L.buckets[idx].empty(),
                  "ladder queue: occupancy bit out of sync with bucket");
      for (const EventKey& k : L.buckets[idx]) {
        count(k);
        DPAR_ASSERT((slot_of_(k.t, lvl) & (kSlotsPerLevel - 1)) == idx,
                    "ladder queue: key filed in the wrong wheel slot");
        if (!stale_key(k)) {
          DPAR_ASSERT(slot_of_(k.t, lvl) >= slot_of_(floor_, lvl),
                      "ladder queue: live event stranded behind the cursor");
          // The floor's level-0 bucket lives in the front, never the wheel
          // — a twin at any level would be shadowed by the front and fire
          // late even though it is not behind its own level's cursor.
          DPAR_ASSERT(slot_of_(k.t, 0) != slot_of_(floor_, 0),
                      "ladder queue: live wheel key in the floor bucket");
        }
      }
    }
  }
  // Tail: the cached minimum is a sound lower bound on every live key.
  for (const EventKey& k : tail_) {
    count(k);
    if (!stale_key(k)) {
      DPAR_ASSERT(k.t >= tail_min_,
                  "ladder queue: tail minimum above a live tail key");
      DPAR_ASSERT(slot_of_(k.t, 0) != slot_of_(floor_, 0),
                  "ladder queue: live tail key in the floor bucket");
    }
  }
  DPAR_ASSERT(counted == lq_size_, "ladder queue: size count out of sync");
  DPAR_ASSERT(stale_keys == stale_, "ladder queue: stale count out of sync");
}

}  // namespace dpar::sim
