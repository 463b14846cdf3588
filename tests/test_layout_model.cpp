// Differential tests: the closed-form striping decomposition against the
// frozen per-chunk reference loop (tests/oracles/layout_reference.cpp), over randomized
// layouts — non-power-of-two units, 1 to 300 servers, offsets and lengths
// straddling unit and round boundaries — plus the structural invariants the
// client send path relies on (partition, maximal coalescing, touched list).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "oracles/layout_reference.hpp"
#include "pfs/layout.hpp"
#include "sim/rng.hpp"

namespace dpar::pfs {
namespace {

using PerServer = std::vector<std::vector<ServerRun>>;

PerServer closed_form(const StripeLayout& layout, const Segment& seg) {
  PerServer out;
  decompose_segment(layout, seg, out);
  return out;
}

PerServer reference(const StripeLayout& base, const Segment& seg) {
  PerServer out;
  out.resize(base.num_servers);
  decompose_segment_reference(base, seg, out);
  return out;
}

/// Invariants both decompositions must uphold for a single segment: the runs
/// partition the segment's bytes, and each server's list is sorted and
/// maximally coalesced.
void check_invariants(const StripeLayout& layout, const Segment& seg,
                      const PerServer& per_server) {
  std::uint64_t total = 0;
  for (const auto& runs : per_server) {
    for (std::size_t i = 0; i < runs.size(); ++i) {
      ASSERT_GT(runs[i].length, 0u);
      total += runs[i].length;
      if (i > 0) {
        ASSERT_GT(runs[i].local_offset,
                  runs[i - 1].local_offset + runs[i - 1].length)
            << "runs not sorted or not maximally coalesced";
      }
    }
  }
  ASSERT_EQ(total, seg.length) << "unit=" << layout.unit_bytes
                               << " servers=" << layout.num_servers
                               << " off=" << seg.offset << " len=" << seg.length;
}

TEST(LayoutModel, ClosedFormMatchesReferenceRandomized) {
  sim::Rng rng(0x5ca1e);
  for (int round = 0; round < 600; ++round) {
    StripeLayout layout;
    layout.unit_bytes = 1 + rng.uniform(256 * 1024);  // arbitrary, non-pow2
    layout.num_servers = 1 + static_cast<std::uint32_t>(rng.uniform(299));
    // Lengths span several striping rounds but keep the reference loop's
    // per-chunk iteration count bounded.
    const std::uint64_t span = layout.unit_bytes * layout.num_servers;
    const std::uint64_t off = rng.uniform(span * 8);
    const std::uint64_t len = 1 + rng.uniform(span * 4);
    const Segment seg{off, len};
    const PerServer closed = closed_form(layout, seg);
    const PerServer ref = reference(layout, seg);
    ASSERT_EQ(closed, ref) << "unit=" << layout.unit_bytes
                           << " servers=" << layout.num_servers << " off=" << off
                           << " len=" << len;
    check_invariants(layout, seg, closed);
  }
}

TEST(LayoutModel, EdgeStraddlingOffsetsAndLengths) {
  for (std::uint64_t unit : {std::uint64_t{1}, std::uint64_t{3},
                             std::uint64_t{4096}, std::uint64_t{65536},
                             std::uint64_t{65537}}) {
    for (std::uint32_t servers : {1u, 2u, 7u, 300u}) {
      StripeLayout layout{unit, servers};
      const std::uint64_t round = unit * servers;
      for (std::uint64_t off :
           {std::uint64_t{0}, unit - 1, unit, unit + 1, round - 1, round,
            round + 1, 5 * round + unit / 2}) {
        for (std::uint64_t len : {std::uint64_t{1}, unit - 1, unit, unit + 1,
                                  round - 1, round, round + 1, 3 * round}) {
          if (len == 0) continue;  // unit - 1 when unit == 1
          const Segment seg{off, len};
          ASSERT_EQ(closed_form(layout, seg), reference(layout, seg))
              << "unit=" << unit << " servers=" << servers << " off=" << off
              << " len=" << len;
        }
      }
    }
  }
}

TEST(LayoutModel, MultiSegmentAccumulationMatchesReference) {
  // The vector overload accumulates across calls, coalescing a new segment's
  // first runs against the previous segment's tails; the frozen loop must
  // agree on the combined result (the client issues list I/O this way).
  sim::Rng rng(0xacc);
  for (int round = 0; round < 100; ++round) {
    const StripeLayout layout{1 + rng.uniform(64 * 1024),
                              1 + static_cast<std::uint32_t>(rng.uniform(63))};
    const std::uint64_t span = layout.unit_bytes * layout.num_servers;
    PerServer closed, ref;
    std::uint64_t cursor = rng.uniform(span);
    for (int s = 0; s < 6; ++s) {
      // Half the time exactly adjacent to the previous segment, so runs
      // coalesce across calls; otherwise a gap.
      if (rng.chance(0.5)) cursor += 1 + rng.uniform(span);
      const Segment seg{cursor, 1 + rng.uniform(span * 2)};
      cursor = seg.end();
      decompose_segment(layout, seg, closed);
      decompose_segment_reference(layout, seg, ref);
      ASSERT_EQ(closed, ref) << "round " << round << " segment " << s;
    }
  }
}

TEST(LayoutModel, ScratchTouchedListsExactlyTheServersWithRuns) {
  sim::Rng rng(0x70c4);
  DecomposeScratch scratch;  // reused across rounds and server counts
  for (int round = 0; round < 200; ++round) {
    StripeLayout layout{1 + rng.uniform(128 * 1024),
                        1 + static_cast<std::uint32_t>(rng.uniform(299))};
    const std::uint64_t span = layout.unit_bytes * layout.num_servers;
    scratch.reset(layout.num_servers);
    PerServer expect;
    const int nsegs = 1 + static_cast<int>(rng.uniform(3));
    for (int s = 0; s < nsegs; ++s) {
      const Segment seg{rng.uniform(span * 4), 1 + rng.uniform(span * 2)};
      decompose_segment(layout, seg, scratch);
      decompose_segment(layout, seg, expect);
    }
    // Same runs as the plain overload.
    ASSERT_GE(scratch.per_server.size(), expect.size());
    for (std::uint32_t s = 0; s < layout.num_servers; ++s)
      ASSERT_EQ(scratch.per_server[s], expect[s]) << "server " << s;
    // touched = exactly the servers with runs, no duplicates.
    std::vector<std::uint32_t> touched = scratch.touched;
    std::sort(touched.begin(), touched.end());
    ASSERT_TRUE(std::adjacent_find(touched.begin(), touched.end()) ==
                touched.end())
        << "duplicate server in touched";
    std::vector<std::uint32_t> nonempty;
    for (std::uint32_t s = 0; s < layout.num_servers; ++s)
      if (!scratch.per_server[s].empty()) nonempty.push_back(s);
    ASSERT_EQ(touched, nonempty);
  }
}

TEST(LayoutModel, ZeroLengthAndHugeOffsets) {
  StripeLayout layout{64 * 1024, 256};
  PerServer out;
  decompose_segment(layout, Segment{12345, 0}, out);
  for (const auto& runs : out) EXPECT_TRUE(runs.empty());
  // Offsets deep into a petabyte file must not overflow the closed form.
  const Segment far{(1ull << 50) + 777, 3 * 64 * 1024 + 11};
  ASSERT_EQ(closed_form(layout, far), reference(layout, far));
}

}  // namespace
}  // namespace dpar::pfs
