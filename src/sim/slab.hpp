// Pooled storage for the simulator's in-flight records.
//
// Every message, server request, RAID split and fan-in lives from one engine
// event to a later one. Allocating each with `new` and freeing it from the
// completing closure cost one malloc/free pair per record (tens of millions
// per large run), and leaked every record still in flight when a Testbed was
// destroyed mid-run: a raw pointer inside a pending closure owns nothing.
// The two containers here replace that idiom:
//
//  * Slab<T> — chunked, pointer-stable, free-listed storage owned by the
//    object that creates the records. Slots are addressed by dense u32 ids
//    (a closure captures `{this, slot}` and stays inside UniqueFn's inline
//    buffer); chunks never move, so a reference survives later acquires. A
//    released slot keeps its T — vectors keep their capacity for the next
//    user — and the slab destroys every T with itself, so records pending at
//    teardown are freed by construction. A slab keeps the peak number of
//    records it held; the owners' records are small and their peaks are
//    bounded by the simulated system (messages, requests in flight).
//  * SlotFifo<T> — a FIFO over fixed blocks of kRetainedCapacity / 2
//    entries, plus one spare block: storage follows the queue's length, so a
//    burst (an incast at a NIC, a deep disk queue) costs its memory only
//    while it lasts, and no block is copied when the queue grows.
//
// Both grow lazily; nothing is reserved at construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace dpar::sim {

/// Capacity a drained container keeps for reuse: the FIFOs here, scratch
/// vectors (clear_bounded) and the event queue's wheel buckets release
/// anything above it once empty, so steady traffic never touches the
/// allocator while a one-off burst does not pin its peak footprint for the
/// rest of the run.
inline constexpr std::size_t kRetainedCapacity = 64;

/// Empty `v`, keeping its storage for reuse unless a burst grew it past
/// kRetainedCapacity elements.
template <class T>
void clear_bounded(std::vector<T>& v) {
  if (v.capacity() > kRetainedCapacity) {
    std::vector<T>().swap(v);
  } else {
    v.clear();
  }
}

/// Chunked stable slab with a LIFO free list and per-slot generations.
template <class T>
class Slab {
 public:
  /// Claim a slot. A fresh slot holds a default-constructed T; a recycled
  /// one holds whatever its last user left in it (callers assign every field
  /// they read; containers inside keep their capacity).
  std::uint32_t acquire() {
    if (!free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      return slot;
    }
    const std::uint32_t slot = count_;
    if ((count_ >> kChunkBits) == chunks_.size())
      chunks_.push_back(std::make_unique<Chunk>());
    ++count_;
    gens_.push_back(0);
    return slot;
  }

  /// Return a slot to the free list and bump its generation. The T stays
  /// constructed; move resources out of it before releasing.
  void release(std::uint32_t slot) {
    ++gens_[slot];
    free_.push_back(slot);
  }

  /// Acquire a slot and move `v` into it.
  std::uint32_t park(T v) {
    const std::uint32_t slot = acquire();
    at(slot) = std::move(v);
    return slot;
  }

  /// Move the slot's value out and release the slot.
  T take(std::uint32_t slot) {
    T v = std::move(at(slot));
    release(slot);
    return v;
  }

  T& at(std::uint32_t slot) {
    return chunks_[slot >> kChunkBits]->slots[slot & kChunkMask];
  }
  const T& at(std::uint32_t slot) const {
    return chunks_[slot >> kChunkBits]->slots[slot & kChunkMask];
  }

  /// Bumped every time the slot is released: lets a stale reference (an
  /// expiry FIFO entry) detect that its record was taken or reused.
  std::uint32_t generation(std::uint32_t slot) const { return gens_[slot]; }

  /// Slots currently acquired.
  std::size_t live() const { return count_ - free_.size(); }
  /// Slots ever created (the peak of live()).
  std::size_t slots() const { return count_; }

 private:
  static constexpr std::uint32_t kChunkBits = 5;  // 32 records per chunk
  static constexpr std::uint32_t kChunkMask = (1u << kChunkBits) - 1;
  struct Chunk {
    T slots[1u << kChunkBits];
  };

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint32_t> gens_;
  std::vector<std::uint32_t> free_;
  std::uint32_t count_ = 0;
};

/// FIFO queue over fixed-size blocks: storage follows the queue's length, so
/// a burst's blocks are freed as it drains. A used-up head block is kept as
/// a spare for the tail, so a short queue cycling through its blocks never
/// allocates.
template <class T>
class SlotFifo {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  /// Entries the queue holds storage for, the spare block included.
  std::size_t capacity() const { return (blocks_.size() + (spare_ ? 1 : 0)) * kBlock; }

  void push_back(T v) {
    const std::size_t pos = head_ + size_;
    if (pos == blocks_.size() * kBlock)
      blocks_.push_back(spare_ ? std::move(spare_) : std::make_unique<Block>());
    blocks_[pos / kBlock]->slots[pos % kBlock] = std::move(v);
    ++size_;
  }

  T& front() { return blocks_.front()->slots[head_]; }
  const T& front() const { return blocks_.front()->slots[head_]; }

  T pop_front() {
    T v = std::move(front());
    --size_;
    if (++head_ == kBlock) {
      // The head block is used up: it becomes the spare, and an older
      // spare is freed.
      spare_ = std::move(blocks_.front());
      blocks_.erase(blocks_.begin());
      head_ = 0;
    } else if (size_ == 0) {
      head_ = 0;
    }
    return v;
  }

 private:
  /// A drained queue keeps at most its block and the spare.
  static constexpr std::size_t kBlock = kRetainedCapacity / 2;
  struct Block {
    T slots[kBlock];
  };

  std::vector<std::unique_ptr<Block>> blocks_;  ///< the front block holds the head
  std::unique_ptr<Block> spare_;
  std::size_t head_ = 0;  ///< the head's index in blocks_.front()
  std::size_t size_ = 0;
};

}  // namespace dpar::sim
