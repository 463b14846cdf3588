// Differential test: the flat-vector RangeSet against a reference model kept
// as a std::map (the pre-overhaul implementation), under randomized
// add/remove/covers/intersects sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "cache/rangeset.hpp"
#include "sim/rng.hpp"

namespace dpar::cache {
namespace {

/// Reference implementation: ordered map begin -> end (the seed RangeSet).
class MapRangeSet {
 public:
  void add(std::uint64_t begin, std::uint64_t end) {
    if (begin >= end) return;
    auto it = ranges_.upper_bound(begin);
    if (it != ranges_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= begin) {
        begin = prev->first;
        end = std::max(end, prev->second);
        it = ranges_.erase(prev);
      }
    }
    while (it != ranges_.end() && it->first <= end) {
      end = std::max(end, it->second);
      it = ranges_.erase(it);
    }
    ranges_.emplace(begin, end);
  }

  void remove(std::uint64_t begin, std::uint64_t end) {
    if (begin >= end) return;
    auto it = ranges_.upper_bound(begin);
    if (it != ranges_.begin()) --it;
    while (it != ranges_.end() && it->first < end) {
      const std::uint64_t rb = it->first;
      const std::uint64_t re = it->second;
      if (re <= begin) {
        ++it;
        continue;
      }
      it = ranges_.erase(it);
      if (rb < begin) ranges_.emplace(rb, begin);
      if (re > end) it = ranges_.emplace(end, re).first;
    }
  }

  bool covers(std::uint64_t begin, std::uint64_t end) const {
    if (begin >= end) return true;
    auto it = ranges_.upper_bound(begin);
    if (it == ranges_.begin()) return false;
    --it;
    return it->second >= end;
  }

  bool intersects(std::uint64_t begin, std::uint64_t end) const {
    if (begin >= end) return false;
    auto it = ranges_.upper_bound(begin);
    if (it != ranges_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > begin) return true;
    }
    return it != ranges_.end() && it->first < end;
  }

  std::uint64_t total_bytes() const {
    std::uint64_t sum = 0;
    for (const auto& [b, e] : ranges_) sum += e - b;
    return sum;
  }

  std::vector<ByteRange> ranges() const {
    std::vector<ByteRange> out;
    out.reserve(ranges_.size());
    for (const auto& [b, e] : ranges_) out.push_back(ByteRange{b, e});
    return out;
  }

 private:
  std::map<std::uint64_t, std::uint64_t> ranges_;
};

class RangeSetModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RangeSetModelTest, RandomizedOpsMatchReferenceModel) {
  sim::Rng rng(GetParam());
  RangeSet flat;
  MapRangeSet model;
  constexpr std::uint64_t kSpace = 1 << 16;  // small space forces overlaps
  for (int op = 0; op < 20'000; ++op) {
    const std::uint64_t b = rng.uniform(kSpace);
    // Mix of tiny, chunk-sized and huge ranges, including begin == end.
    const std::uint64_t len = rng.uniform(3) == 0 ? rng.uniform(kSpace / 2)
                                                  : rng.uniform(256);
    const std::uint64_t e = std::min(b + len, kSpace);
    switch (rng.uniform(4)) {
      case 0:
      case 1: {
        // add() reports the bytes newly covered: cross-check the delta
        // against the model's before/after totals (it feeds the cache's
        // usage counters).
        const std::uint64_t before = model.total_bytes();
        model.add(b, e);
        EXPECT_EQ(flat.add(b, e), model.total_bytes() - before) << "op " << op;
        break;
      }
      case 2: {
        const std::uint64_t before = model.total_bytes();
        model.remove(b, e);
        EXPECT_EQ(flat.remove(b, e), before - model.total_bytes()) << "op " << op;
        break;
      }
      default: {
        EXPECT_EQ(flat.covers(b, e), model.covers(b, e)) << "op " << op;
        EXPECT_EQ(flat.intersects(b, e), model.intersects(b, e)) << "op " << op;
        break;
      }
    }
    // Storage follows the live range count after every operation.
    ASSERT_LE(flat.ranges().capacity(),
              std::max(kRangeSetFloor, 4 * flat.ranges().size()))
        << "op " << op;
    if (op % 256 == 0) {
      ASSERT_EQ(flat.ranges(), model.ranges()) << "op " << op;
      ASSERT_EQ(flat.total_bytes(), model.total_bytes()) << "op " << op;
      ASSERT_EQ(flat.empty(), model.ranges().empty()) << "op " << op;
    }
  }
  EXPECT_EQ(flat.ranges(), model.ranges());
  EXPECT_EQ(flat.total_bytes(), model.total_bytes());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeSetModelTest,
                         ::testing::Values(1u, 2u, 3u, 42u, 1337u));

TEST(RangeSetModel, AddRemoveReportByteDeltas) {
  RangeSet rs;
  EXPECT_EQ(rs.add(0, 100), 100u);
  EXPECT_EQ(rs.add(50, 150), 50u);   // half already covered
  EXPECT_EQ(rs.add(20, 80), 0u);     // fully covered
  EXPECT_EQ(rs.add(10, 10), 0u);     // empty
  EXPECT_EQ(rs.total_bytes(), 150u);
  EXPECT_EQ(rs.remove(140, 200), 10u);  // partial overlap on the right
  EXPECT_EQ(rs.remove(300, 400), 0u);   // disjoint
  EXPECT_EQ(rs.remove(40, 60), 20u);    // split
  EXPECT_EQ(rs.total_bytes(), 120u);
  rs.clear();
  EXPECT_EQ(rs.total_bytes(), 0u);
}

TEST(RangeSetModel, AdjacentRangesCoalesce) {
  RangeSet rs;
  rs.add(0, 10);
  rs.add(10, 20);  // adjacent, must merge
  ASSERT_EQ(rs.ranges().size(), 1u);
  EXPECT_EQ(rs.ranges()[0], (ByteRange{0, 20}));
  rs.add(30, 40);
  rs.add(21, 29);  // NOT adjacent to either side
  EXPECT_EQ(rs.ranges().size(), 3u);
  rs.add(20, 21);  // bridges [0,20) and [21,29)
  rs.add(29, 30);  // bridges the rest
  ASSERT_EQ(rs.ranges().size(), 1u);
  EXPECT_EQ(rs.ranges()[0], (ByteRange{0, 40}));
}

TEST(RangeSetModel, RemoveSplitsInPlace) {
  RangeSet rs;
  rs.add(0, 100);
  rs.remove(40, 60);
  ASSERT_EQ(rs.ranges().size(), 2u);
  EXPECT_EQ(rs.ranges()[0], (ByteRange{0, 40}));
  EXPECT_EQ(rs.ranges()[1], (ByteRange{60, 100}));
  EXPECT_FALSE(rs.covers(39, 41));
  EXPECT_TRUE(rs.intersects(39, 41));
}

}  // namespace
}  // namespace dpar::cache
