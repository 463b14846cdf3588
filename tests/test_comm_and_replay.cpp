// Tests for synchronizing collectives, the server page cache with
// read-ahead, and trace replay.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/testbed.hpp"
#include "pfs/server_cache.hpp"
#include "wl/trace_replay.hpp"
#include "wl/workloads.hpp"

namespace dpar {
namespace {

using mpi::Op;
using mpi::OpCompute;
using mpi::OpEnd;
using mpi::OpIo;

class ScriptProgram final : public mpi::Program {
 public:
  explicit ScriptProgram(std::vector<Op> ops) : ops_(std::move(ops)) {}
  Op next(mpi::ProgramContext&) override {
    if (pos_ >= ops_.size()) return OpEnd{};
    return ops_[pos_++];
  }
  std::unique_ptr<mpi::Program> clone() const override {
    auto p = std::make_unique<ScriptProgram>(ops_);
    p->pos_ = pos_;
    return p;
  }

 private:
  std::vector<Op> ops_;
  std::size_t pos_ = 0;
};

harness::TestbedConfig small_config() {
  harness::TestbedConfig cfg;
  cfg.data_servers = 3;
  cfg.compute_nodes = 2;
  cfg.cores_per_node = 8;
  return cfg;
}

TEST(Allreduce, SynchronizesAndCostsMoreThanABarrier) {
  auto finish = [&](std::uint64_t bytes) {
    harness::Testbed tb(small_config());
    auto& job = tb.add_job("ar", 4, tb.vanilla(), [&, bytes](std::uint32_t rank) {
      std::vector<Op> ops;
      ops.push_back(OpCompute{sim::msec(rank)});  // skewed arrivals
      if (bytes == 0) {
        ops.push_back(mpi::OpBarrier{});
      } else {
        ops.push_back(mpi::OpAllreduce{bytes});
      }
      return std::make_unique<ScriptProgram>(std::move(ops));
    }, dualpar::Policy::kForcedNormal);
    tb.run();
    return job.completion_time();
  };
  const auto barrier = finish(0);
  const auto small = finish(1024);
  const auto big = finish(4 << 20);
  EXPECT_GT(small, barrier);
  EXPECT_GT(big, small);
  // Everyone leaves together: at least as late as the slowest arrival.
  EXPECT_GE(barrier, sim::msec(3));
}

TEST(Allreduce, BtioWithAllreduceStillRunsUnderDualPar) {
  harness::Testbed tb(small_config());
  wl::BtioConfig c;
  c.total_bytes = 2 << 20;
  c.write_steps = 4;
  c.read_back = true;
  c.allreduce_bytes = 64 * 1024;
  c.file = tb.create_file("f", c.total_bytes * 2);
  auto& job = tb.add_job("bt", 4, tb.dualpar(),
                         [c](std::uint32_t) { return wl::make_btio(c); },
                         dualpar::Policy::kForcedDataDriven);
  tb.run();
  EXPECT_TRUE(job.finished());
  EXPECT_TRUE(tb.cache().all_dirty_segments().empty());
  // The collective's wait time lands in the compute probe.
  EXPECT_GT(job.total_compute_time(), 0);
}

TEST(ServerCache, HitsSkipTheDisk) {
  pfs::ServerCacheParams p;
  p.capacity_bytes = 1 << 20;
  pfs::ServerCache c(p);
  EXPECT_TRUE(c.enabled());
  EXPECT_FALSE(c.covers(1, 0, 4096));
  c.insert(1, 0, 64 * 1024);
  EXPECT_TRUE(c.covers(1, 0, 4096));
  EXPECT_TRUE(c.covers(1, 60 * 1024, 4 * 1024));
  EXPECT_FALSE(c.covers(1, 60 * 1024, 8 * 1024));
  EXPECT_FALSE(c.covers(2, 0, 1));
  EXPECT_EQ(c.resident_bytes(), 64u * 1024);
}

TEST(ServerCache, DisabledByDefault) {
  pfs::ServerCache c;
  EXPECT_FALSE(c.enabled());
  c.insert(1, 0, 4096);
  EXPECT_FALSE(c.covers(1, 0, 1));
}

TEST(ServerCache, ReadaheadOnlyOnSequentialStreams) {
  pfs::ServerCacheParams p;
  p.capacity_bytes = 1 << 20;
  p.readahead_bytes = 128 * 1024;
  pfs::ServerCache c(p);
  EXPECT_EQ(c.readahead_hint(1, 0, 64 * 1024), 0u);             // first touch
  EXPECT_EQ(c.readahead_hint(1, 64 * 1024, 64 * 1024), 128u * 1024);  // sequential
  EXPECT_EQ(c.readahead_hint(1, 10 << 20, 64 * 1024), 0u);      // jump resets
  // After read-ahead, the stream cursor includes the prefetched window.
  EXPECT_EQ(c.readahead_hint(1, (10 << 20) + 64 * 1024, 4096), 128u * 1024);
}

TEST(ServerCache, FifoEvictionBoundsResidency) {
  pfs::ServerCacheParams p;
  p.capacity_bytes = 128 * 1024;
  pfs::ServerCache c(p);
  for (std::uint64_t i = 0; i < 8; ++i) c.insert(1, i * 64 * 1024, 64 * 1024);
  EXPECT_LE(c.resident_bytes(), 128u * 1024);
  EXPECT_GT(c.evicted_bytes(), 0u);
  EXPECT_FALSE(c.covers(1, 0, 1));                  // oldest gone
  EXPECT_TRUE(c.covers(1, 7 * 64 * 1024, 64 * 1024));  // newest resident
}

TEST(ServerCache, EndToEndRereadIsServedFromMemory) {
  harness::TestbedConfig cfg = small_config();
  cfg.server.page_cache.capacity_bytes = 64 << 20;
  harness::Testbed tb(cfg);
  wl::DemoConfig dc;
  dc.file = tb.create_file("f", 4 << 20);
  dc.file_size = 4 << 20;
  dc.segment_size = 64 * 1024;
  // Two identical jobs in sequence: the second re-reads what the first
  // faulted in.
  tb.add_job("cold", 2, tb.vanilla(), [dc](std::uint32_t) { return wl::make_demo(dc); },
             dualpar::Policy::kForcedNormal);
  tb.add_job("warm", 2, tb.vanilla(), [dc](std::uint32_t) { return wl::make_demo(dc); },
             dualpar::Policy::kForcedNormal, sim::secs(5));
  tb.run();
  std::uint64_t hits = 0, misses = 0;
  for (std::uint32_t s = 0; s < tb.num_servers(); ++s) {
    hits += tb.server(s).page_cache().hits();
    misses += tb.server(s).page_cache().misses();
  }
  EXPECT_GT(hits, misses / 2);  // the warm pass hits
  // Disks served roughly one copy of the data, not two.
  std::uint64_t disk_read = 0;
  for (std::uint32_t s = 0; s < tb.num_servers(); ++s)
    disk_read += tb.server(s).disk_bytes_read();
  EXPECT_LT(disk_read, (4u << 20) * 3 / 2);
}

TEST(TraceReplay, CsvRoundTrip) {
  std::vector<wl::TraceOp> ops;
  ops.push_back({0, wl::TraceOp::Kind::kCompute, 0, 0, 0, sim::msec(2)});
  ops.push_back({0, wl::TraceOp::Kind::kRead, 3, 4096, 65536, 0});
  ops.push_back({1, wl::TraceOp::Kind::kWrite, 3, 0, 1024, 0});
  ops.push_back({1, wl::TraceOp::Kind::kBarrier, 0, 0, 0, 0});
  const std::string csv = wl::format_trace_csv(ops);
  EXPECT_EQ(wl::parse_trace_csv(csv), ops);
}

TEST(TraceReplay, ParserRejectsGarbage) {
  EXPECT_THROW(wl::parse_trace_csv("0,frobnicate,0,0,0,0\n"), std::invalid_argument);
  EXPECT_THROW(wl::parse_trace_csv("0,read,1,2\n"), std::invalid_argument);
  EXPECT_TRUE(wl::parse_trace_csv("# comment only\nrank,op,file,offset,length,"
                                  "duration_us\n").empty());
}

TEST(TraceReplay, ReplaysThroughTheFullStack) {
  harness::Testbed tb(small_config());
  const pfs::FileId f = tb.create_file("f", 8 << 20);
  std::string csv = "rank,op,file,offset,length,duration_us\n";
  for (int r = 0; r < 2; ++r) {
    for (int i = 0; i < 8; ++i) {
      csv += std::to_string(r) + ",compute,0,0,0,500\n";
      csv += std::to_string(r) + ",read," + std::to_string(f) + "," +
             std::to_string((r * 8 + i) * 65536) + ",65536,0\n";
    }
    csv += std::to_string(r) + ",barrier,0,0,0,0\n";
    csv += std::to_string(r) + ",write," + std::to_string(f) + "," +
           std::to_string(r * 65536) + ",65536,0\n";
  }
  auto ops = wl::parse_trace_csv(csv);
  auto& job = tb.add_job("replay", 2, tb.dualpar(), [ops](std::uint32_t rank) {
    return wl::make_trace_replay(ops, rank);
  }, dualpar::Policy::kForcedDataDriven);
  tb.run();
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(job.total_bytes(), 2u * 8 * 65536 + 2u * 65536);
  EXPECT_TRUE(tb.cache().all_dirty_segments().empty());
}

TEST(TraceReplay, CloneSupportsGhosting) {
  std::vector<wl::TraceOp> ops;
  for (int i = 0; i < 4; ++i)
    ops.push_back({0, wl::TraceOp::Kind::kRead, 1,
                   static_cast<std::uint64_t>(i) * 4096, 4096, 0});
  auto prog = wl::make_trace_replay(ops, 0);
  mpi::ProgramContext ctx;
  (void)prog->next(ctx);
  auto clone = prog->clone();
  const Op a = prog->next(ctx);
  const Op b = clone->next(ctx);
  EXPECT_EQ(std::get<OpIo>(a).call.segments[0].offset,
            std::get<OpIo>(b).call.segments[0].offset);
}

}  // namespace
}  // namespace dpar
