#include "dualpar/crm.hpp"

#include <algorithm>

namespace dpar::dualpar {
namespace {

void sort_by_offset(std::vector<pfs::Segment>& segs) {
  std::sort(segs.begin(), segs.end(), [](const pfs::Segment& a, const pfs::Segment& b) {
    return a.offset != b.offset ? a.offset < b.offset : a.length < b.length;
  });
}

/// Merge overlapping/adjacent segments; absorb gaps < hole_max. Only merges
/// forward runs, so unsorted input (sort disabled in ablations) never loses
/// coverage.
std::vector<pfs::Segment> merge_sorted(const std::vector<pfs::Segment>& segs,
                                       std::uint64_t hole_max) {
  std::vector<pfs::Segment> out;
  for (const auto& s : segs) {
    if (s.length == 0) continue;
    if (!out.empty() && s.offset >= out.back().offset) {
      const std::uint64_t prev_end = out.back().end();
      if (s.offset <= prev_end + hole_max) {
        if (s.end() > prev_end) out.back().length = s.end() - out.back().offset;
        continue;
      }
    }
    out.push_back(s);
  }
  return out;
}

}  // namespace

std::vector<pfs::Segment> build_read_batch(std::vector<pfs::Segment> segments,
                                           const BatchOptions& opt) {
  segments.erase(std::remove_if(segments.begin(), segments.end(),
                                [](const pfs::Segment& s) { return s.length == 0; }),
                 segments.end());
  if (opt.sort) sort_by_offset(segments);
  if (!opt.merge) return segments;
  if (!opt.sort) {
    // Merging without sorting can only coalesce arrival-adjacent pieces.
    return merge_sorted(segments, opt.hole_fill_max);
  }
  return merge_sorted(segments, opt.hole_fill_max);
}

WritebackPlan plan_writeback(std::vector<pfs::Segment> dirty, const BatchOptions& opt) {
  WritebackPlan plan;
  for (const auto& s : dirty) plan.dirty_bytes += s.length;
  sort_by_offset(dirty);
  dirty = merge_sorted(dirty, 0);  // exact dirty runs
  if (!opt.merge || opt.hole_fill_max == 0) {
    plan.writes = std::move(dirty);
    return plan;
  }
  // Coalesce runs separated by small holes; each absorbed hole needs a read.
  for (const auto& s : dirty) {
    if (!plan.writes.empty()) {
      const std::uint64_t prev_end = plan.writes.back().end();
      if (s.offset > prev_end && s.offset - prev_end <= opt.hole_fill_max) {
        plan.hole_reads.push_back(pfs::Segment{prev_end, s.offset - prev_end});
        plan.hole_bytes += s.offset - prev_end;
        plan.writes.back().length = s.end() - plan.writes.back().offset;
        continue;
      }
    }
    plan.writes.push_back(s);
  }
  return plan;
}

double mean_adjacent_distance(const std::vector<pfs::Segment>& segments) {
  if (segments.size() < 2) return 0.0;
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (const auto& s : segments) {
    lo = std::min(lo, s.offset);
    hi = std::max(hi, s.offset);
  }
  return mean_adjacent_distance(lo, hi, segments.size());
}

double mean_adjacent_distance(std::uint64_t min_offset, std::uint64_t max_offset,
                              std::uint64_t count) {
  if (count < 2) return 0.0;
  return static_cast<double>(max_offset - min_offset) / static_cast<double>(count - 1);
}

}  // namespace dpar::dualpar
