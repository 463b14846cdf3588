// Tests for CRM's pure planning logic: sorting, merging, hole filling,
// write-back planning, ReqDist.
#include <gtest/gtest.h>

#include <bit>

#include "dualpar/crm.hpp"
#include "oracles/reqdist_reference.hpp"
#include "sim/rng.hpp"

namespace dpar::dualpar {
namespace {

using pfs::Segment;

TEST(BuildReadBatch, SortsByOffset) {
  BatchOptions opt;
  opt.hole_fill_max = 0;
  auto out = build_read_batch({{300, 10}, {100, 10}, {200, 10}}, opt);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].offset, 100u);
  EXPECT_EQ(out[1].offset, 200u);
  EXPECT_EQ(out[2].offset, 300u);
}

TEST(BuildReadBatch, MergesAdjacentAndOverlapping) {
  BatchOptions opt;
  opt.hole_fill_max = 0;
  auto out = build_read_batch({{0, 100}, {100, 100}, {150, 100}}, opt);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (Segment{0, 250}));
}

TEST(BuildReadBatch, AbsorbsSmallHoles) {
  BatchOptions opt;
  opt.hole_fill_max = 50;
  auto out = build_read_batch({{0, 100}, {140, 100}, {500, 100}}, opt);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (Segment{0, 240}));  // 40-byte hole absorbed
  EXPECT_EQ(out[1], (Segment{500, 100}));  // 260-byte hole kept
}

TEST(BuildReadBatch, RespectsDisabledSort) {
  BatchOptions opt;
  opt.sort = false;
  opt.hole_fill_max = 0;
  auto out = build_read_batch({{300, 10}, {100, 10}}, opt);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].offset, 300u);  // arrival order preserved
}

TEST(BuildReadBatch, RespectsDisabledMerge) {
  BatchOptions opt;
  opt.merge = false;
  auto out = build_read_batch({{100, 100}, {0, 100}}, opt);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].offset, 0u);  // sorted but not merged
}

TEST(BuildReadBatch, DropsEmptySegments) {
  BatchOptions opt;
  auto out = build_read_batch({{100, 0}, {0, 10}}, opt);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], (Segment{0, 10}));
}

TEST(BuildReadBatch, PropertyCoverageIsPreserved) {
  // Whatever the options, every input byte must be covered by the output.
  sim::Rng rng(13);
  for (int round = 0; round < 20; ++round) {
    std::vector<Segment> in;
    for (int i = 0; i < 50; ++i)
      in.push_back(Segment{rng.uniform(1 << 20), 1 + rng.uniform(4096)});
    BatchOptions opt;
    opt.sort = rng.chance(0.5);
    opt.merge = rng.chance(0.5);
    opt.hole_fill_max = rng.chance(0.5) ? 0 : 64 * 1024;
    auto out = build_read_batch(in, opt);
    for (const auto& s : in) {
      for (std::uint64_t probe : {s.offset, s.end() - 1}) {
        bool covered = false;
        for (const auto& o : out)
          covered |= (probe >= o.offset && probe < o.end());
        EXPECT_TRUE(covered) << "byte " << probe << " lost";
      }
    }
  }
}

TEST(PlanWriteback, ContiguousDirtyNeedsNoHoles) {
  BatchOptions opt;
  auto plan = plan_writeback({{0, 100}, {100, 100}}, opt);
  EXPECT_TRUE(plan.hole_reads.empty());
  ASSERT_EQ(plan.writes.size(), 1u);
  EXPECT_EQ(plan.writes[0], (Segment{0, 200}));
  EXPECT_EQ(plan.dirty_bytes, 200u);
}

TEST(PlanWriteback, SmallHolesAreReadAndMerged) {
  BatchOptions opt;
  opt.hole_fill_max = 64;
  auto plan = plan_writeback({{0, 100}, {150, 100}}, opt);
  ASSERT_EQ(plan.hole_reads.size(), 1u);
  EXPECT_EQ(plan.hole_reads[0], (Segment{100, 50}));
  ASSERT_EQ(plan.writes.size(), 1u);
  EXPECT_EQ(plan.writes[0], (Segment{0, 250}));
  EXPECT_EQ(plan.hole_bytes, 50u);
}

TEST(PlanWriteback, LargeHolesSplitTheWrites) {
  BatchOptions opt;
  opt.hole_fill_max = 64;
  auto plan = plan_writeback({{0, 100}, {1000, 100}}, opt);
  EXPECT_TRUE(plan.hole_reads.empty());
  EXPECT_EQ(plan.writes.size(), 2u);
}

TEST(PlanWriteback, UnsortedInputHandled) {
  BatchOptions opt;
  opt.hole_fill_max = 0;
  auto plan = plan_writeback({{500, 100}, {0, 100}}, opt);
  ASSERT_EQ(plan.writes.size(), 2u);
  EXPECT_EQ(plan.writes[0].offset, 0u);
}

TEST(MeanAdjacentDistance, SequentialRequests) {
  // 16 KB requests back to back: adjacent offset distance = 16 KB.
  std::vector<Segment> segs;
  for (int i = 0; i < 10; ++i)
    segs.push_back(Segment{static_cast<std::uint64_t>(i) * 16384, 16384});
  EXPECT_DOUBLE_EQ(mean_adjacent_distance(segs), 16384.0);
}

TEST(MeanAdjacentDistance, SortsBeforeMeasuring) {
  std::vector<Segment> segs = {{32768, 16384}, {0, 16384}, {16384, 16384}};
  EXPECT_DOUBLE_EQ(mean_adjacent_distance(segs), 16384.0);
}

TEST(MeanAdjacentDistance, DegenerateCases) {
  EXPECT_DOUBLE_EQ(mean_adjacent_distance({}), 0.0);
  EXPECT_DOUBLE_EQ(mean_adjacent_distance({{100, 10}}), 0.0);
}

TEST(MeanAdjacentDistance, LinearPassMatchesSortedSumBitForBit) {
  // The adjacent differences of sorted offsets telescope to max - min; with
  // every offset below 2^53 each partial sum is exact, so the single pass
  // must reproduce the sort-then-sum result to the last bit.
  sim::Rng rng(0x5eed);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto segs = reference::random_multiset(rng);
    const double want = reference::mean_adjacent_distance(segs);
    const double got = mean_adjacent_distance(segs);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
        << "trial " << trial << ": " << got << " vs " << want;
  }
}

}  // namespace
}  // namespace dpar::dualpar
