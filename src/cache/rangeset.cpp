#include "cache/rangeset.hpp"

#include <algorithm>

namespace dpar::cache {

// Branchless binary searches: the loop body compiles to a conditional move,
// so the branch predictor never sees the (data-dependent) comparison result.
// Both maintain the invariant "answer lies in [base, base + n]".

std::size_t RangeSet::upper_bound_begin(std::uint64_t x) const {
  std::size_t base = 0;
  std::size_t n = ranges_.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    base = (ranges_[base + half - 1].begin <= x) ? base + half : base;
    n -= half;
  }
  if (n == 1 && ranges_[base].begin <= x) ++base;
  return base;
}

std::size_t RangeSet::lower_bound_end(std::uint64_t x) const {
  std::size_t base = 0;
  std::size_t n = ranges_.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    base = (ranges_[base + half - 1].end < x) ? base + half : base;
    n -= half;
  }
  if (n == 1 && ranges_[base].end < x) ++base;
  return base;
}

std::uint64_t RangeSet::add(std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return 0;
  // Fast path: appending at or past the tail, the common sequential pattern.
  if (ranges_.empty() || begin > ranges_.back().end) {
    ranges_.push_back(ByteRange{begin, end});
    total_ += end - begin;
    return end - begin;
  }
  if (begin == ranges_.back().end) {
    const std::uint64_t grown = std::max(ranges_.back().end, end) - ranges_.back().end;
    ranges_.back().end += grown;
    total_ += grown;
    return grown;
  }
  // Merge window: every range overlapping or adjacent to [begin, end).
  const std::size_t lo = lower_bound_end(begin);   // first with r.end >= begin
  const std::size_t hi = upper_bound_begin(end);   // first with r.begin > end
  if (lo >= hi) {
    ranges_.insert(ranges_.begin() + static_cast<std::ptrdiff_t>(lo),
                   ByteRange{begin, end});
    total_ += end - begin;
    return end - begin;
  }
  std::uint64_t window_bytes = 0;
  for (std::size_t i = lo; i < hi; ++i) window_bytes += ranges_[i].length();
  const std::uint64_t merged_begin = std::min(begin, ranges_[lo].begin);
  const std::uint64_t merged_end = std::max(end, ranges_[hi - 1].end);
  ranges_[lo] = ByteRange{merged_begin, merged_end};
  ranges_.erase(ranges_.begin() + static_cast<std::ptrdiff_t>(lo) + 1,
                ranges_.begin() + static_cast<std::ptrdiff_t>(hi));
  const std::uint64_t grown = (merged_end - merged_begin) - window_bytes;
  total_ += grown;
  fit_storage();
  DPAR_IF_CHECKING(check_invariants());
  return grown;
}

std::uint64_t RangeSet::remove(std::uint64_t begin, std::uint64_t end) {
  if (begin >= end) return 0;
  // Affected window: ranges with r.end > begin and r.begin < end.
  const std::size_t lo = lower_bound_end(begin + 1);  // first with r.end > begin
  const std::size_t hi = upper_bound_begin(end - 1);  // first with r.begin >= end
  if (lo >= hi) return 0;
  std::uint64_t removed = 0;
  for (std::size_t i = lo; i < hi; ++i)
    removed += std::min(ranges_[i].end, end) - std::max(ranges_[i].begin, begin);
  const ByteRange left{ranges_[lo].begin, begin};    // survives if non-empty
  const ByteRange right{end, ranges_[hi - 1].end};   // survives if non-empty
  std::size_t keep = 0;
  if (left.begin < left.end) ++keep;
  if (right.begin < right.end) ++keep;
  const std::size_t window = hi - lo;
  if (keep <= window) {
    std::size_t out = lo;
    if (left.begin < left.end) ranges_[out++] = left;
    if (right.begin < right.end) ranges_[out++] = right;
    ranges_.erase(ranges_.begin() + static_cast<std::ptrdiff_t>(out),
                  ranges_.begin() + static_cast<std::ptrdiff_t>(hi));
  } else {
    // Single range split into two: one insert.
    ranges_[lo] = left;
    ranges_.insert(ranges_.begin() + static_cast<std::ptrdiff_t>(lo) + 1, right);
  }
  total_ -= removed;
  fit_storage();
  DPAR_IF_CHECKING(check_invariants());
  return removed;
}

void RangeSet::fit_storage() {
  const std::size_t live = ranges_.size();
  if (live == 0) {
    std::vector<ByteRange>().swap(ranges_);
    return;
  }
  if (ranges_.capacity() <= kRangeSetFloor || 4 * live >= ranges_.capacity()) return;
  std::vector<ByteRange> fitted;
  fitted.reserve(std::max(kRangeSetFloor, 2 * live));
  fitted.assign(ranges_.begin(), ranges_.end());
  ranges_.swap(fitted);
}

void RangeSet::check_invariants() const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < ranges_.size(); ++i) {
    DPAR_ASSERT(ranges_[i].begin < ranges_[i].end, "RangeSet: empty range stored");
    if (i > 0)
      DPAR_ASSERT(ranges_[i - 1].end < ranges_[i].begin,
                  "RangeSet: ranges out of order, overlapping, or adjacent");
    sum += ranges_[i].length();
  }
  DPAR_ASSERT(sum == total_,
              "RangeSet: incremental byte total diverged from range sum");
  DPAR_ASSERT(ranges_.capacity() <= std::max(kRangeSetFloor, 4 * ranges_.size()),
              "RangeSet: storage did not follow the live range count");
}

bool RangeSet::covers(std::uint64_t begin, std::uint64_t end) const {
  if (begin >= end) return true;
  const std::size_t i = upper_bound_begin(begin);
  return i > 0 && ranges_[i - 1].end >= end;
}

bool RangeSet::intersects(std::uint64_t begin, std::uint64_t end) const {
  if (begin >= end) return false;
  const std::size_t i = upper_bound_begin(begin);
  if (i > 0 && ranges_[i - 1].end > begin) return true;
  return i < ranges_.size() && ranges_[i].begin < end;
}

}  // namespace dpar::cache
