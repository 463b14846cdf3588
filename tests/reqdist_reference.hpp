// Differential oracle for ReqDist (dualpar::mean_adjacent_distance and the
// EMC's per-slot fold): the original sort-then-sum form, frozen, plus a
// generator of adversarial offset multisets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "pfs/layout.hpp"
#include "sim/rng.hpp"

namespace dpar::dualpar::reference {

/// Sort by offset, then average the adjacent offset differences.
inline double mean_adjacent_distance(std::vector<pfs::Segment> segments) {
  if (segments.size() < 2) return 0.0;
  std::sort(segments.begin(), segments.end(),
            [](const pfs::Segment& a, const pfs::Segment& b) {
              return a.offset != b.offset ? a.offset < b.offset : a.length < b.length;
            });
  double sum = 0.0;
  for (std::size_t i = 1; i < segments.size(); ++i)
    sum += static_cast<double>(segments[i].offset - segments[i - 1].offset);
  return sum / static_cast<double>(segments.size() - 1);
}

/// A random offset multiset: duplicate offsets, zero-length segments, and
/// (sometimes) offsets near 2^48, in random order.
inline std::vector<pfs::Segment> random_multiset(sim::Rng& rng) {
  const std::uint64_t base = rng.chance(0.3) ? (1ull << 48) - rng.uniform(1ull << 40) : 0;
  const std::uint64_t spread = rng.chance(0.5) ? 1ull << 20 : 1ull << 36;
  std::vector<pfs::Segment> segs(rng.uniform(40));
  for (std::size_t i = 0; i < segs.size(); ++i) {
    segs[i].offset = i > 0 && rng.chance(0.2) ? segs[rng.uniform(i)].offset  // duplicate
                                              : base + rng.uniform(spread);
    segs[i].length = rng.chance(0.2) ? 0 : rng.uniform_between(1, 1 << 16);
  }
  return segs;
}

}  // namespace dpar::dualpar::reference
