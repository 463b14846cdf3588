// Differential oracle for mpiio::plan_two_phase: the original two-phase
// planner, frozen. It collects every file-domain piece per aggregator, sorts
// and coalesces each list, and keys the traffic by (aggregator, rank node)
// in std::maps. Correct and simple, but it allocates per piece and sorts
// what is already a set of ascending runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "mpiio/collective.hpp"

namespace dpar::mpiio::reference {

inline std::vector<pfs::Segment> sort_and_merge(std::vector<pfs::Segment> segs) {
  std::sort(segs.begin(), segs.end(), [](const pfs::Segment& a, const pfs::Segment& b) {
    return a.offset < b.offset;
  });
  std::vector<pfs::Segment> out;
  for (const auto& s : segs) {
    if (s.length == 0) continue;
    if (!out.empty() && out.back().end() >= s.offset) {
      out.back().length = std::max(out.back().end(), s.end()) - out.back().offset;
    } else {
      out.push_back(s);
    }
  }
  return out;
}

inline TwoPhasePlan plan_two_phase(const std::vector<TwoPhaseRank>& ranks, bool is_write,
                                   const CollectiveParams& params) {
  TwoPhasePlan plan;
  std::uint64_t lo = UINT64_MAX, hi = 0, useful = 0;
  for (const auto& r : ranks) {
    for (const auto& s : *r.segments) {
      if (s.length == 0) continue;
      lo = std::min(lo, s.offset);
      hi = std::max(hi, s.end());
      useful += s.length;
    }
  }
  if (useful == 0) return plan;

  auto& aggs = plan.aggs;
  {
    std::vector<net::NodeId> nodes;
    for (const auto& r : ranks) {
      if (std::find(nodes.begin(), nodes.end(), r.node) == nodes.end()) {
        nodes.push_back(r.node);
        aggs.push_back({r.node, r.context, {}});
      }
    }
    std::sort(aggs.begin(), aggs.end(),
              [](const auto& a, const auto& b) { return a.node < b.node; });
  }
  const std::uint64_t nagg = aggs.size();
  const std::uint64_t extent = hi - lo;
  const std::uint64_t domain = (extent + nagg - 1) / nagg;

  std::map<std::pair<std::uint64_t, net::NodeId>, std::uint64_t> shuffle_map;
  std::map<std::pair<std::uint64_t, net::NodeId>, std::uint64_t> meta_map;
  for (const auto& r : ranks) {
    for (const auto& s : *r.segments) {
      std::uint64_t off = s.offset, rem = s.length;
      while (rem > 0) {
        const std::uint64_t a = std::min((off - lo) / domain, nagg - 1);
        const std::uint64_t dom_end = lo + (a + 1) * domain;
        const std::uint64_t take = std::min(rem, dom_end - off);
        aggs[a].segs.push_back(pfs::Segment{off, take});
        shuffle_map[{a, r.node}] += take;
        meta_map[{a, r.node}] += 16;
        off += take;
        rem -= take;
      }
    }
  }

  for (auto& a : aggs) {
    a.segs = sort_and_merge(std::move(a.segs));
    if (a.segs.size() <= 1) continue;
    const std::uint64_t span = a.segs.back().end() - a.segs.front().offset;
    std::uint64_t use = 0;
    for (const auto& s : a.segs) use += s.length;
    const bool dense = span <= params.sieve_buffer &&
                       static_cast<double>(use) / static_cast<double>(span) >=
                           params.sieve_min_density;
    if (!dense) continue;
    if (!is_write) a.segs = {pfs::Segment{a.segs.front().offset, span}};
  }

  for (const auto& [key, meta_bytes] : meta_map) {
    const std::uint64_t payload = shuffle_map[key];
    std::uint64_t bytes = 64 + meta_bytes;
    if (is_write) bytes += payload;
    plan.messages.push_back({key.second, aggs[key.first].node, bytes, payload});
    plan.shuffle_bytes += payload;
  }
  return plan;
}

}  // namespace dpar::mpiio::reference
