// Tests for striping math, the extent allocator, data server and the
// client list-I/O path.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "disk/device.hpp"
#include "net/network.hpp"
#include "pfs/file_system.hpp"
#include "pfs/layout.hpp"
#include "pfs/server.hpp"
#include "sim/engine.hpp"

namespace dpar::pfs {
namespace {

using sim::Engine;

TEST(StripeLayout, ServerAssignmentRoundRobin) {
  StripeLayout l{64 * 1024, 4};
  EXPECT_EQ(l.server_of(0), 0u);
  EXPECT_EQ(l.server_of(64 * 1024), 1u);
  EXPECT_EQ(l.server_of(3 * 64 * 1024), 3u);
  EXPECT_EQ(l.server_of(4 * 64 * 1024), 0u);
  EXPECT_EQ(l.server_of(64 * 1024 - 1), 0u);
}

TEST(StripeLayout, ServerLocalOffsetsAreContiguousPerServer) {
  StripeLayout l{64 * 1024, 4};
  // Stripes 0 and 4 both live on server 0, back to back locally.
  EXPECT_EQ(l.server_local_offset(0), 0u);
  EXPECT_EQ(l.server_local_offset(4 * 64 * 1024), 64u * 1024);
  EXPECT_EQ(l.server_local_offset(8 * 64 * 1024 + 100), 2u * 64 * 1024 + 100);
}

TEST(StripeLayout, ServerShareSumsToFileSize) {
  StripeLayout l{64 * 1024, 9};
  for (std::uint64_t size : {0ull, 1000ull, 64ull * 1024, 10ull << 20, (10ull << 20) + 777}) {
    std::uint64_t total = 0;
    for (std::uint32_t s = 0; s < l.num_servers; ++s) total += l.server_share(s, size);
    EXPECT_EQ(total, size) << "size=" << size;
  }
}

TEST(DecomposeSegment, CoversExactlyAndCoalesces) {
  StripeLayout l{64 * 1024, 3};
  std::vector<std::vector<ServerRun>> per_server;
  // 5 stripes + a bit: servers 0,1,2,0,1,2.
  Segment seg{10, 5 * 64 * 1024};
  decompose_segment(l, seg, per_server);
  std::uint64_t total = 0;
  for (const auto& runs : per_server)
    for (const auto& r : runs) total += r.length;
  EXPECT_EQ(total, seg.length);
  // Server 0 gets stripes 0 and 3; they are locally contiguous only if the
  // pieces touch: stripe 0 piece is [10, 64K), stripe 3 piece is [64K, 128K)
  // in local space -> not coalescible because the first run ends at 64K
  // local and the next starts at 64K local => they DO coalesce.
  ASSERT_EQ(per_server[0].size(), 1u);
  EXPECT_EQ(per_server[0][0].local_offset, 10u);
}

TEST(DecomposeSegment, SmallSegmentSingleServer) {
  StripeLayout l{64 * 1024, 9};
  std::vector<std::vector<ServerRun>> per_server;
  Segment seg{64 * 1024 + 5, 100};
  decompose_segment(l, seg, per_server);
  ASSERT_EQ(per_server[1].size(), 1u);
  EXPECT_EQ(per_server[1][0].local_offset, 5u);
  EXPECT_EQ(per_server[1][0].length, 100u);
  for (std::uint32_t s = 0; s < 9; ++s)
    if (s != 1) {
      EXPECT_TRUE(per_server[s].empty());
    }
}

struct PfsFixture : ::testing::Test {
  static constexpr std::uint32_t kServers = 3;
  Engine eng;
  net::Network net{eng, kServers + 2};  // servers on 0..2, mds on 3, client on 4
  std::vector<std::unique_ptr<DataServer>> servers;
  std::unique_ptr<FileSystem> fs;
  std::unique_ptr<Client> client;

  void SetUp() override {
    std::vector<DataServer*> raw;
    for (std::uint32_t s = 0; s < kServers; ++s) {
      auto dev = std::make_unique<disk::DiskDevice>(eng, disk::DiskParams{},
                                                    disk::make_cfq_scheduler());
      dev->set_keep_trace_events(true);
      servers.push_back(std::make_unique<DataServer>(eng, s, std::move(dev)));
      raw.push_back(servers.back().get());
    }
    fs = std::make_unique<FileSystem>(eng, net, raw, StripeLayout{64 * 1024, kServers});
    client = std::make_unique<Client>(*fs, /*node=*/4);
  }
};

TEST_F(PfsFixture, ReadCompletesWithByteCount) {
  const FileId f = fs->create("a", 8 << 20);
  std::uint64_t got = 0;
  client->io(f, std::vector<Segment>{Segment{0, 1 << 20}}, /*is_write=*/false, 1,
             [&](std::uint64_t b, fault::Status) { got = b; });
  eng.run();
  EXPECT_EQ(got, 1u << 20);
  // 1 MB over 3 servers with 64 KB stripes: coalesced into one run each.
  std::uint64_t served = 0;
  for (auto& s : servers) served += s->bytes_read();
  EXPECT_EQ(served, 1u << 20);
}

TEST_F(PfsFixture, WriteReachesAllServers) {
  const FileId f = fs->create("a", 8 << 20);
  std::uint64_t got = 0;
  client->io(f, std::vector<Segment>{Segment{0, 192 * 1024}}, /*is_write=*/true, 1,
             [&](std::uint64_t b, fault::Status) { got = b; });
  eng.run();
  EXPECT_EQ(got, 192u * 1024);
  for (auto& s : servers) EXPECT_EQ(s->bytes_written(), 64u * 1024);
}

TEST_F(PfsFixture, MultiSegmentListIo) {
  const FileId f = fs->create("a", 64 << 20);
  std::vector<Segment> segs;
  for (int i = 0; i < 16; ++i)
    segs.push_back(Segment{static_cast<std::uint64_t>(i) * 256 * 1024, 4096});
  std::uint64_t got = 0;
  client->io(f, segs, false, 1, [&](std::uint64_t b, fault::Status) { got = b; });
  eng.run();
  EXPECT_EQ(got, 16u * 4096);
}

TEST_F(PfsFixture, EmptySegmentsCompleteImmediately) {
  const FileId f = fs->create("a", 1 << 20);
  bool called = false;
  client->io(f, {}, false, 1, [&](std::uint64_t b, fault::Status) {
    called = true;
    EXPECT_EQ(b, 0u);
  });
  eng.run();
  EXPECT_TRUE(called);
}

TEST_F(PfsFixture, SequentialWholeFileReadIsContiguousOnDisk) {
  const FileId f = fs->create("a", 16 << 20);
  // Read the whole file in 64 KB calls; each server must see ascending LBNs
  // with no long seeks after the first.
  std::uint64_t off = 0;
  std::function<void(std::uint64_t, fault::Status)> step = [&](std::uint64_t, fault::Status) {
    if (off >= (16u << 20)) return;
    const Segment seg{off, 64 * 1024};
    off += 64 * 1024;
    client->io(f, std::vector<Segment>{seg}, false, 1, step);
  };
  step(0, fault::Status::kOk);
  eng.run();
  for (auto& s : servers) {
    const auto& evs = s->trace().events();
    ASSERT_FALSE(evs.empty());
    for (std::size_t i = 1; i < evs.size(); ++i) {
      EXPECT_GE(evs[i].lba, evs[i - 1].lba);
      EXPECT_LE(evs[i].seek_distance, 128u);
    }
  }
}

TEST_F(PfsFixture, DistinctFilesOccupyDistantRegions) {
  const FileId a = fs->create("a", 64 << 20);
  const FileId b = fs->create("b", 64 << 20);
  std::uint64_t lba_a = 0, lba_b = 0;
  client->io(a, std::vector<Segment>{Segment{0, 4096}}, false, 1,
             [](std::uint64_t, fault::Status) {});
  eng.run();
  lba_a = servers[0]->trace().events().back().lba;
  client->io(b, std::vector<Segment>{Segment{0, 4096}}, false, 1,
             [](std::uint64_t, fault::Status) {});
  eng.run();
  lba_b = servers[0]->trace().events().back().lba;
  // b's extent starts beyond a's share plus the inter-file gap.
  EXPECT_GT(lba_b, lba_a + disk::bytes_to_sectors((64u << 20) / 3));
}

TEST_F(PfsFixture, AllocatorRejectsOversizedFile) {
  EXPECT_THROW(fs->create("huge", 4ull << 40), std::runtime_error);
}

}  // namespace
}  // namespace dpar::pfs
