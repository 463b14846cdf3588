// Tests for the MPI-IO drivers: vanilla request flow and two-phase
// collective I/O (synchronization, aggregation, sieving, shuffle).
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "harness/testbed.hpp"
#include "oracles/collective_reference.hpp"
#include "sim/rng.hpp"
#include "wl/workloads.hpp"

namespace dpar::mpiio {
namespace {

harness::TestbedConfig small_config() {
  harness::TestbedConfig cfg;
  cfg.data_servers = 3;
  cfg.compute_nodes = 2;
  cfg.cores_per_node = 8;
  return cfg;
}

TEST(Vanilla, ObserverSeesEveryCall) {
  harness::Testbed tb(small_config());
  const pfs::FileId f = tb.create_file("a", 8 << 20);
  wl::DemoConfig dc;
  dc.file = f;
  dc.file_size = 1 << 20;
  dc.segment_size = 16 * 1024;
  tb.add_job("v", 2, tb.vanilla(), [&](std::uint32_t) { return wl::make_demo(dc); },
             dualpar::Policy::kForcedNormal);
  tb.run();
  // EMC collected request observations: the last evaluation has a ReqDist.
  tb.emc().tick();
  // (No assertion on the value; the hook path is what matters.)
  SUCCEED();
}

TEST(Collective, NoncollectiveCallsPassThrough) {
  harness::Testbed tb(small_config());
  const pfs::FileId f = tb.create_file("a", 8 << 20);
  wl::DemoConfig dc;
  dc.file = f;
  dc.file_size = 1 << 20;
  dc.segment_size = 16 * 1024;
  auto& job = tb.add_job("c", 2, tb.collective(), [&](std::uint32_t) {
    return wl::make_demo(dc);  // demo never sets collective
  }, dualpar::Policy::kForcedNormal);
  tb.run();
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(tb.collective().collective_rounds(), 0u);
}

TEST(Collective, RoundCompletesOnlyWhenAllRanksArrive) {
  harness::Testbed tb(small_config());
  const pfs::FileId f = tb.create_file("a", 64 << 20);
  wl::NoncontigConfig nc;
  nc.file = f;
  nc.columns = 4;
  nc.elmt_count = 256;
  nc.rows = 256;
  nc.collective = true;
  auto& job = tb.add_job("c", 4, tb.collective(), [&](std::uint32_t) {
    return wl::make_noncontig(nc);
  }, dualpar::Policy::kForcedNormal);
  tb.run();
  EXPECT_TRUE(job.finished());
  EXPECT_GT(tb.collective().collective_rounds(), 0u);
  // All application bytes arrived.
  EXPECT_EQ(job.total_bytes(), 4u * 256 * 256 * 4);
}

TEST(Collective, AggregationMergesServerRequests) {
  // Interleaved column reads: collective I/O should produce far fewer disk
  // requests than vanilla for the same bytes.
  auto disk_requests = [&](bool collective) {
    harness::Testbed tb(small_config());
    wl::NoncontigConfig nc;
    nc.columns = 4;
    nc.elmt_count = 64;  // 256-byte elements -> very fragmented vanilla I/O
    nc.rows = 512;
    nc.collective = collective;
    const std::uint64_t fsize = nc.columns * nc.elmt_count * 4 * nc.rows;
    nc.file = tb.create_file("a", fsize);
    tb.add_job("c", 4,
               collective ? static_cast<mpi::IoDriver&>(tb.collective())
                          : static_cast<mpi::IoDriver&>(tb.vanilla()),
               [&](std::uint32_t) { return wl::make_noncontig(nc); },
               dualpar::Policy::kForcedNormal);
    tb.run();
    std::uint64_t n = 0;
    for (std::uint32_t s = 0; s < tb.num_servers(); ++s)
      n += tb.server(s).trace().dispatches();
    return n;
  };
  EXPECT_LT(disk_requests(true) * 4, disk_requests(false));
}

TEST(Collective, ShuffleTrafficGrowsWithData) {
  harness::Testbed tb(small_config());
  wl::NoncontigConfig nc;
  nc.columns = 4;
  nc.elmt_count = 256;
  nc.rows = 256;
  nc.collective = true;
  const std::uint64_t fsize = nc.columns * nc.elmt_count * 4 * nc.rows;
  nc.file = tb.create_file("a", fsize);
  auto& job = tb.add_job("c", 4, tb.collective(), [&](std::uint32_t) {
    return wl::make_noncontig(nc);
  }, dualpar::Policy::kForcedNormal);
  tb.run();
  EXPECT_TRUE(job.finished());
  // Aggregators scattered (roughly) every byte that crossed node boundaries.
  EXPECT_GT(tb.collective().shuffle_bytes(), fsize / 4);
}

TEST(Collective, WritePathDeliversAllBytes) {
  harness::Testbed tb(small_config());
  wl::NoncontigConfig nc;
  nc.columns = 4;
  nc.elmt_count = 256;
  nc.rows = 256;
  nc.collective = true;
  nc.is_write = true;
  const std::uint64_t fsize = nc.columns * nc.elmt_count * 4 * nc.rows;
  nc.file = tb.create_file("a", fsize);
  auto& job = tb.add_job("w", 4, tb.collective(), [&](std::uint32_t) {
    return wl::make_noncontig(nc);
  }, dualpar::Policy::kForcedNormal);
  tb.run();
  EXPECT_TRUE(job.finished());
  std::uint64_t written = 0;
  for (std::uint32_t s = 0; s < tb.num_servers(); ++s)
    written += tb.server(s).bytes_written();
  EXPECT_EQ(written, fsize);
}

TEST(Collective, HoleyWritesUseListIo) {
  // Writes never sieve: an aggregator whose domain has holes writes its
  // pieces as list I/O and reads nothing, as ROMIO does on PVFS2.
  harness::Testbed tb(small_config());
  wl::NoncontigConfig nc;
  nc.columns = 4;
  nc.elmt_count = 256;
  nc.rows = 128;
  nc.collective = true;
  nc.is_write = true;
  const std::uint64_t fsize = nc.columns * nc.elmt_count * 4 * nc.rows;
  nc.file = tb.create_file("a", fsize);
  auto& job = tb.add_job("w", 2, tb.collective(), [&](std::uint32_t) {
    return wl::make_noncontig(nc);  // 2 of 4 columns -> holes in the span
  }, dualpar::Policy::kForcedNormal);
  tb.run();
  EXPECT_TRUE(job.finished());
  std::uint64_t reads = 0;
  for (std::uint32_t s = 0; s < tb.num_servers(); ++s)
    reads += tb.server(s).bytes_read();
  EXPECT_EQ(reads, 0u);
}

TEST(Collective, DataSievingReadsContiguousSpan) {
  // Dense interleaved reads within a small span: aggregators should sieve
  // (single span read), so servers see slightly MORE bytes than requested.
  harness::Testbed tb(small_config());
  wl::NoncontigConfig nc;
  nc.columns = 4;
  nc.elmt_count = 64;
  nc.rows = 128;
  nc.collective = true;
  const std::uint64_t fsize = nc.columns * nc.elmt_count * 4 * nc.rows;
  nc.file = tb.create_file("a", fsize);
  auto& job = tb.add_job("s", 2, tb.collective(), [&](std::uint32_t) {
    return wl::make_noncontig(nc);  // 2 ranks read columns 0,1 of 4 -> holes
  }, dualpar::Policy::kForcedNormal);
  tb.run();
  std::uint64_t served = 0;
  for (std::uint32_t s = 0; s < tb.num_servers(); ++s)
    served += tb.server(s).bytes_read();
  EXPECT_GT(served, job.total_bytes());  // holes were read along (sieving)
}

/// One rank's segments in one of the layouts collective rounds see.
std::vector<pfs::Segment> random_rank_segments(sim::Rng& rng, int layout,
                                               std::uint32_t rank, std::uint64_t base) {
  std::vector<pfs::Segment> segs;
  const std::uint32_t n = static_cast<std::uint32_t>(rng.uniform(12));
  const std::uint64_t cell = rng.uniform_between(1, 4096);
  for (std::uint32_t i = 0; i < n; ++i) {
    pfs::Segment s{};
    switch (layout) {
      case 0:  // interleaved rows (BTIO): rank r's cell of row i
        s = {base + (i * 64 + rank) * cell, cell};
        break;
      case 1:  // rank-major blocks, ascending within the rank
        s = {base + (rank * 16 + i) * cell, cell};
        break;
      case 2:  // ascending, overlapping and touching neighbours
        s = {base + rank * 100 + i * cell / 2, rng.uniform_between(1, 2 * cell)};
        break;
      default:  // anything, in any order
        s = {base + rng.uniform(1 << 20), rng.uniform_between(1, 1 << 14)};
        break;
    }
    if (rng.chance(0.1)) s.length = 0;
    segs.push_back(s);
  }
  if (layout < 3 && rng.chance(0.05) && segs.size() > 1)
    std::swap(segs.front(), segs.back());
  return segs;
}

void expect_same_plan(const TwoPhasePlan& got, const TwoPhasePlan& want) {
  ASSERT_EQ(got.aggs.size(), want.aggs.size());
  for (std::size_t a = 0; a < want.aggs.size(); ++a) {
    SCOPED_TRACE("aggregator " + std::to_string(a));
    EXPECT_EQ(got.aggs[a].node, want.aggs[a].node);
    EXPECT_EQ(got.aggs[a].context, want.aggs[a].context);
    EXPECT_EQ(got.aggs[a].segs, want.aggs[a].segs);
  }
  ASSERT_EQ(got.messages.size(), want.messages.size());
  for (std::size_t m = 0; m < want.messages.size(); ++m) {
    SCOPED_TRACE("message " + std::to_string(m));
    EXPECT_EQ(got.messages[m].rank_node, want.messages[m].rank_node);
    EXPECT_EQ(got.messages[m].agg_node, want.messages[m].agg_node);
    EXPECT_EQ(got.messages[m].request_bytes, want.messages[m].request_bytes);
    EXPECT_EQ(got.messages[m].payload_bytes, want.messages[m].payload_bytes);
  }
  EXPECT_EQ(got.shuffle_bytes, want.shuffle_bytes);
}

TEST(TwoPhasePlanner, MatchesTheMapAndSortOracleOnRandomRounds) {
  // plan_two_phase (ordered visit, dense traffic table, coalesce-on-place)
  // against the frozen map-and-sort planner: same aggregator lists, message
  // list in order, and shuffle volume. One plan and scratch
  // serve every trial, as in the driver, so nothing may leak from a
  // previous round of another shape.
  sim::Rng rng(0x2face);
  TwoPhasePlan plan;
  TwoPhaseScratch scratch;
  for (int trial = 0; trial < 600; ++trial) {
    const int layout = static_cast<int>(rng.uniform(4));
    const std::uint32_t nprocs = static_cast<std::uint32_t>(rng.uniform_between(1, 48));
    // Uneven ranks per node: a few sparse node ids, picked with skew.
    const std::uint32_t node_pool = static_cast<std::uint32_t>(rng.uniform_between(1, 9));
    const std::uint64_t base = rng.chance(0.2) ? 1ull << 40 : rng.uniform(1 << 16);
    std::vector<std::vector<pfs::Segment>> segs;
    std::vector<TwoPhaseRank> ranks;
    segs.reserve(nprocs);
    for (std::uint32_t r = 0; r < nprocs; ++r) {
      if (rng.chance(0.15)) continue;  // already finished: not in the round
      const auto pick = std::min(rng.uniform(node_pool), rng.uniform(node_pool));
      const net::NodeId node = static_cast<net::NodeId>(3 * pick + 1);
      segs.push_back(random_rank_segments(rng, layout, r, base));
      ranks.push_back({node, 1000 + r, &segs.back()});
    }
    // Arrival order is not rank order.
    for (std::size_t i = ranks.size(); i > 1; --i)
      std::swap(ranks[i - 1], ranks[rng.uniform(i)]);

    CollectiveParams params;
    if (rng.chance(0.3)) params.sieve_buffer = rng.uniform_between(1, 1 << 16);
    if (rng.chance(0.3)) params.sieve_min_density = rng.uniform01();
    const bool is_write = rng.chance(0.5);

    SCOPED_TRACE("trial " + std::to_string(trial));
    plan_two_phase(ranks, is_write, params, plan, scratch);
    expect_same_plan(plan, reference::plan_two_phase(ranks, is_write, params));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(TwoPhasePlanner, EmptyRoundPlansNothing) {
  // Planned into a plan that still holds the previous round.
  TwoPhasePlan plan;
  TwoPhaseScratch scratch;
  const std::vector<pfs::Segment> some = {{0, 4096}};
  plan_two_phase({{0, 0, &some}}, /*is_write=*/true, {}, plan, scratch);
  ASSERT_FALSE(plan.messages.empty());
  const std::vector<pfs::Segment> none, zero = {{4096, 0}};
  const std::vector<TwoPhaseRank> ranks = {{0, 0, &none}, {1, 1, &zero}};
  plan_two_phase(ranks, /*is_write=*/false, {}, plan, scratch);
  EXPECT_TRUE(plan.aggs.empty());
  EXPECT_TRUE(plan.messages.empty());
  EXPECT_EQ(plan.shuffle_bytes, 0u);
}

}  // namespace
}  // namespace dpar::mpiio
