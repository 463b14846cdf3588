// Sorted, coalescing set of half-open byte ranges [begin, end).
//
// Used per cache chunk to track which bytes are valid and which are dirty,
// and by CRM to compute write-back holes. This sits on CRM's sort/merge/
// hole-fill hot path and in every server-cache lookup, so storage is a flat
// sorted vector (contiguous, cache-friendly, no per-node allocation) and the
// point lookups use a branchless lower bound.
//
// Storage follows the live range count. The vector grows by doubling; when a
// merge or a removal leaves it more than kRangeSetFloor slots and under a
// quarter used, it gives the excess back (keeping twice the live count, so
// reallocations stay amortised O(1) per operation), and an empty set keeps
// no storage at all. A cache chunk that 256 ranks write in 40-byte cells
// fragments into hundreds of ranges and then coalesces to one; without this
// rule every such chunk would pin its peak vector for the rest of the run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/debug.hpp"

namespace dpar::cache {

struct ByteRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t length() const { return end - begin; }
  friend bool operator==(const ByteRange&, const ByteRange&) = default;
};

/// Slots a set may keep without shrinking: below this a give-back would cost
/// more reallocations than it saves bytes.
inline constexpr std::size_t kRangeSetFloor = 8;

class RangeSet {
 public:
  /// Insert [begin, end), merging with any overlapping/adjacent ranges.
  /// Returns the number of bytes newly covered (0 if already present).
  std::uint64_t add(std::uint64_t begin, std::uint64_t end);

  /// Remove [begin, end) from the set (splitting ranges as needed).
  /// Returns the number of bytes actually removed (0 if none were covered).
  std::uint64_t remove(std::uint64_t begin, std::uint64_t end);

  /// True when [begin, end) is fully covered.
  bool covers(std::uint64_t begin, std::uint64_t end) const;

  /// True when [begin, end) overlaps any range.
  bool intersects(std::uint64_t begin, std::uint64_t end) const;

  /// O(1): maintained incrementally by add/remove.
  std::uint64_t total_bytes() const { return total_; }
  bool empty() const { return ranges_.empty(); }
  const std::vector<ByteRange>& ranges() const { return ranges_; }
  void clear() {
    ranges_.clear();
    total_ = 0;
    fit_storage();
  }

  /// Full structural validation (debug invariant layer): sortedness, pairwise
  /// disjoint/non-adjacent, non-empty ranges, the incrementally maintained
  /// byte total matching the sum of range lengths, and storage within
  /// max(kRangeSetFloor, 4 x live ranges). Aborts via DPAR_ASSERT on
  /// violation. Called after every add/remove when DPAR_CHECK_INVARIANTS is
  /// compiled in, and directly by tests.
  void check_invariants() const;

#if DPAR_CHECK_INVARIANTS
  /// Test-only corruption hooks for the invariant layer's own death tests —
  /// exist solely so a test can prove DPAR_ASSERT fires on a broken set.
  void debug_corrupt_total_for_test(std::uint64_t total) { total_ = total; }
  void debug_corrupt_order_for_test() {
    if (ranges_.size() >= 2) std::swap(ranges_.front(), ranges_.back());
  }
#endif

 private:
  /// First index whose range begins after `x` (branchless binary search).
  std::size_t upper_bound_begin(std::uint64_t x) const;
  /// First index whose range ends at or after `x` (branchless binary search).
  std::size_t lower_bound_end(std::uint64_t x) const;
  /// The storage rule, applied after every operation that drops ranges:
  /// release an empty set's storage, shrink one under a quarter used.
  void fit_storage();

  /// Invariant: sorted by begin, pairwise disjoint and non-adjacent
  /// (r[i].end < r[i+1].begin), every range non-empty.
  std::vector<ByteRange> ranges_;
  /// Invariant: sum of all range lengths. The add/remove byte deltas feed
  /// the cache's per-node/per-owner usage counters, which replaced full
  /// chunk-table scans.
  std::uint64_t total_ = 0;
};

}  // namespace dpar::cache
