// Tests for the range set and the memcached-style global cache.
#include <gtest/gtest.h>

#include <vector>

#include "cache/global_cache.hpp"
#include "cache/rangeset.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace dpar::cache {
namespace {

using pfs::Segment;
using sim::Engine;

TEST(RangeSet, AddAndCovers) {
  RangeSet rs;
  rs.add(10, 20);
  EXPECT_TRUE(rs.covers(10, 20));
  EXPECT_TRUE(rs.covers(12, 15));
  EXPECT_FALSE(rs.covers(5, 15));
  EXPECT_FALSE(rs.covers(15, 25));
  EXPECT_TRUE(rs.covers(5, 5));  // empty range trivially covered
}

TEST(RangeSet, MergesOverlappingAndAdjacent) {
  RangeSet rs;
  rs.add(10, 20);
  rs.add(20, 30);  // adjacent
  rs.add(5, 12);   // overlapping
  EXPECT_EQ(rs.ranges().size(), 1u);
  EXPECT_TRUE(rs.covers(5, 30));
  EXPECT_EQ(rs.total_bytes(), 25u);
}

TEST(RangeSet, DisjointRangesStaySeparate) {
  RangeSet rs;
  rs.add(0, 10);
  rs.add(20, 30);
  EXPECT_EQ(rs.ranges().size(), 2u);
  EXPECT_FALSE(rs.covers(0, 30));
  EXPECT_TRUE(rs.intersects(5, 25));
  EXPECT_FALSE(rs.intersects(12, 18));
}

TEST(RangeSet, RemoveSplits) {
  RangeSet rs;
  rs.add(0, 100);
  rs.remove(40, 60);
  EXPECT_TRUE(rs.covers(0, 40));
  EXPECT_TRUE(rs.covers(60, 100));
  EXPECT_FALSE(rs.intersects(40, 60));
  EXPECT_EQ(rs.total_bytes(), 80u);
}

TEST(RangeSet, RemoveAcrossMultipleRanges) {
  RangeSet rs;
  rs.add(0, 10);
  rs.add(20, 30);
  rs.add(40, 50);
  rs.remove(5, 45);
  EXPECT_EQ(rs.ranges(), (std::vector<ByteRange>{{0, 5}, {45, 50}}));
}

TEST(RangeSet, PropertyAddRemoveConsistency) {
  // Random adds/removes cross-checked against a bitmap model.
  sim::Rng rng(77);
  RangeSet rs;
  std::vector<bool> model(1000, false);
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t b = rng.uniform(1000);
    const std::uint64_t e = b + rng.uniform(100);
    const bool remove = rng.chance(0.3);
    if (remove) {
      rs.remove(b, std::min<std::uint64_t>(e, 1000));
      for (std::uint64_t j = b; j < std::min<std::uint64_t>(e, 1000); ++j) model[j] = false;
    } else {
      rs.add(b, std::min<std::uint64_t>(e, 1000));
      for (std::uint64_t j = b; j < std::min<std::uint64_t>(e, 1000); ++j) model[j] = true;
    }
  }
  std::uint64_t model_bytes = 0;
  for (bool b : model) model_bytes += b;
  EXPECT_EQ(rs.total_bytes(), model_bytes);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t b = rng.uniform(990);
    const std::uint64_t e = b + 1 + rng.uniform(9);
    bool covered = true;
    for (std::uint64_t j = b; j < e; ++j) covered &= model[j];
    EXPECT_EQ(rs.covers(b, e), covered) << "[" << b << "," << e << ")";
  }
}

struct CacheFixture : ::testing::Test {
  Engine eng;
  net::Network net{eng, 4};
  GlobalCache cache{eng, net, {0, 1, 2}, CacheParams{64 * 1024, sim::secs(30)}};
};

TEST_F(CacheFixture, InsertThenCovers) {
  cache.insert(1, Segment{0, 128 * 1024}, /*owner=*/5, /*prefetched=*/true);
  EXPECT_TRUE(cache.covers(1, Segment{0, 128 * 1024}));
  EXPECT_TRUE(cache.covers(1, Segment{64 * 1024, 1024}));
  EXPECT_FALSE(cache.covers(1, Segment{128 * 1024, 1}));
  EXPECT_FALSE(cache.covers(2, Segment{0, 1024}));
  EXPECT_EQ(cache.chunk_count(), 2u);
}

TEST_F(CacheFixture, PartialChunkValidity) {
  cache.insert(1, Segment{100, 200}, 5, false);
  EXPECT_TRUE(cache.covers(1, Segment{100, 200}));
  EXPECT_FALSE(cache.covers(1, Segment{0, 100}));
}

TEST_F(CacheFixture, WriteMarksDirtyAndReadYourWrites) {
  cache.write(1, Segment{1000, 5000}, 5);
  EXPECT_TRUE(cache.covers(1, Segment{1000, 5000}));
  const auto dirty = cache.dirty_segments(1);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], (Segment{1000, 5000}));
}

TEST_F(CacheFixture, DirtySegmentsMergeAcrossChunks) {
  cache.write(1, Segment{0, 64 * 1024}, 5);
  cache.write(1, Segment{64 * 1024, 64 * 1024}, 5);
  const auto dirty = cache.dirty_segments(1);
  ASSERT_EQ(dirty.size(), 1u);
  EXPECT_EQ(dirty[0], (Segment{0, 128 * 1024}));
}

TEST_F(CacheFixture, ClearDirtyAfterWriteback) {
  cache.write(1, Segment{0, 32 * 1024}, 5);
  cache.clear_dirty(1, Segment{0, 32 * 1024});
  EXPECT_TRUE(cache.dirty_segments(1).empty());
  EXPECT_TRUE(cache.covers(1, Segment{0, 32 * 1024}));  // stays valid
}

TEST_F(CacheFixture, AllDirtySegmentsSpansFiles) {
  cache.write(2, Segment{0, 1024}, 5);
  cache.write(1, Segment{0, 1024}, 5);
  const auto all = cache.all_dirty_segments();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, 1u);
  EXPECT_EQ(all[1].first, 2u);
}

TEST_F(CacheFixture, OwnerQuotaAccounting) {
  cache.insert(1, Segment{0, 128 * 1024}, 5, true);
  cache.insert(1, Segment{128 * 1024, 64 * 1024}, 6, true);
  EXPECT_EQ(cache.owner_bytes(5), 128u * 1024);
  EXPECT_EQ(cache.owner_bytes(6), 64u * 1024);
}

TEST_F(CacheFixture, ReferenceClearsPrefetchedAndCounts) {
  cache.insert(1, Segment{0, 64 * 1024}, 5, true);
  EXPECT_EQ(cache.reference(1, Segment{0, 1024}), 64u * 1024);
  // Second reference is no longer "newly used".
  EXPECT_EQ(cache.reference(1, Segment{0, 1024}), 0u);
}

TEST_F(CacheFixture, UnusedPrefetchedBytes) {
  cache.insert(1, Segment{0, 64 * 1024}, 5, true);
  cache.insert(1, Segment{64 * 1024, 64 * 1024}, 5, true);
  cache.reference(1, Segment{0, 1024});
  const std::vector<ChunkKey> keys = {{1, 0}, {1, 1}};
  EXPECT_EQ(cache.unused_prefetched_bytes(keys), 64u * 1024);
}

TEST_F(CacheFixture, IdleEvictionSparesDirty) {
  cache.insert(1, Segment{0, 64 * 1024}, 5, false);
  cache.write(1, Segment{64 * 1024, 64 * 1024}, 5);
  eng.run_until(sim::secs(40));
  const auto evicted = cache.evict_idle(eng.now());
  EXPECT_EQ(evicted, 64u * 1024);
  EXPECT_FALSE(cache.covers(1, Segment{0, 1}));
  EXPECT_TRUE(cache.covers(1, Segment{64 * 1024, 1}));
}

TEST_F(CacheFixture, DropCleanKeepsDirty) {
  cache.insert(1, Segment{0, 64 * 1024}, 5, true);
  cache.write(1, Segment{64 * 1024, 1024}, 5);
  cache.drop_clean(5);
  EXPECT_FALSE(cache.covers(1, Segment{0, 1}));
  EXPECT_TRUE(cache.covers(1, Segment{64 * 1024, 1024}));
}

TEST_F(CacheFixture, TransferGetPaysRoundTrip) {
  sim::Time done_at = -1;
  // from node 3, chunk 0 of file 1 homes on node 0.
  cache.transfer(1, Segment{0, 64 * 1024}, 3, /*to_cache=*/false,
                 [&] { done_at = eng.now(); });
  eng.run();
  EXPECT_GT(done_at, sim::usec(100));  // request + payload reply
  EXPECT_GE(net.messages_sent(), 2u);
}

TEST_F(CacheFixture, TransferSpreadsOverHomes) {
  // 3 chunks -> homes 0,1,2: three puts in parallel.
  cache.transfer(1, Segment{0, 192 * 1024}, 3, /*to_cache=*/true, [] {});
  eng.run();
  EXPECT_EQ(net.messages_sent(), 3u);
}

TEST_F(CacheFixture, HomeNodeRoundRobin) {
  EXPECT_EQ(cache.home_node(ChunkKey{9, 0}), 0u);
  EXPECT_EQ(cache.home_node(ChunkKey{9, 1}), 1u);
  EXPECT_EQ(cache.home_node(ChunkKey{9, 2}), 2u);
  EXPECT_EQ(cache.home_node(ChunkKey{9, 3}), 0u);
}

}  // namespace
}  // namespace dpar::cache
