// Tests for the MPI runtime: process op execution, barriers, timing probes,
// program cloning.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "harness/testbed.hpp"
#include "mpi/job.hpp"
#include "mpi/program.hpp"
#include "wl/workloads.hpp"

namespace dpar::mpi {
namespace {

/// Scripted program for tests: fixed list of ops.
class ScriptProgram final : public Program {
 public:
  explicit ScriptProgram(std::vector<Op> ops) : ops_(std::move(ops)) {}
  Op next(ProgramContext&) override {
    if (pos_ >= ops_.size()) return OpEnd{};
    return ops_[pos_++];
  }
  std::unique_ptr<Program> clone() const override {
    auto p = std::make_unique<ScriptProgram>(ops_);
    p->pos_ = pos_;
    return p;
  }

 private:
  std::vector<Op> ops_;
  std::size_t pos_ = 0;
};

Op read_op(pfs::FileId f, std::uint64_t off, std::uint64_t len) {
  IoCall c;
  c.file = f;
  c.segments.push_back(pfs::Segment{off, len});
  return OpIo{std::move(c)};
}

harness::TestbedConfig small_config() {
  harness::TestbedConfig cfg;
  cfg.data_servers = 3;
  cfg.compute_nodes = 2;
  cfg.cores_per_node = 4;
  return cfg;
}

TEST(MpiJob, RunsComputeAndIoToCompletion) {
  harness::Testbed tb(small_config());
  const pfs::FileId f = tb.create_file("a", 8 << 20);
  auto& job = tb.add_job("t", 2, tb.vanilla(), [&](std::uint32_t) {
    std::vector<Op> ops;
    ops.push_back(OpCompute{sim::msec(5)});
    ops.push_back(read_op(f, 0, 64 * 1024));
    ops.push_back(OpCompute{sim::msec(5)});
    ops.push_back(read_op(f, 64 * 1024, 64 * 1024));
    return std::make_unique<ScriptProgram>(std::move(ops));
  }, dualpar::Policy::kForcedNormal);
  tb.run();
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(job.process(0).bytes_read(), 128u * 1024);
  EXPECT_EQ(job.process(0).compute_time(), sim::msec(10));
  EXPECT_GT(job.process(0).io_time(), 0);
  EXPECT_GT(job.completion_time(), sim::msec(10));
}

TEST(MpiJob, BarrierSynchronizesRanks) {
  harness::Testbed tb(small_config());
  auto& job = tb.add_job("t", 4, tb.vanilla(), [&](std::uint32_t rank) {
    std::vector<Op> ops;
    // Rank r computes r*10 ms, then barrier, then 1 ms.
    ops.push_back(OpCompute{sim::msec(10) * rank});
    ops.push_back(OpBarrier{});
    ops.push_back(OpCompute{sim::msec(1)});
    return std::make_unique<ScriptProgram>(std::move(ops));
  }, dualpar::Policy::kForcedNormal);
  tb.run();
  // Everyone leaves the barrier only after the slowest rank (30 ms).
  for (std::uint32_t r = 0; r < 4; ++r)
    EXPECT_GE(job.process(r).finish_time(), sim::msec(31));
  // And not much later than that.
  EXPECT_LT(job.process(0).finish_time(), sim::msec(33));
}

TEST(MpiJob, BarrierCompletedByAFinishingRankReleasesAtItsEnd) {
  // Rank 3 never enters the barrier: its end completes the barrier the
  // other ranks wait on, so they resume at rank 3's end plus the barrier
  // cost, not at the last entry.
  harness::Testbed tb(small_config());
  auto& job = tb.add_job("t", 4, tb.vanilla(), [&](std::uint32_t rank) {
    std::vector<Op> ops;
    if (rank == 3) {
      ops.push_back(OpCompute{sim::msec(20)});
    } else {
      ops.push_back(OpCompute{sim::msec(rank + 1)});
      ops.push_back(OpBarrier{});
      ops.push_back(OpCompute{sim::msec(1)});
    }
    return std::make_unique<ScriptProgram>(std::move(ops));
  }, dualpar::Policy::kForcedNormal);
  tb.run();
  EXPECT_EQ(job.process(3).finish_time(), sim::msec(20));
  // Three live ranks: 2 * bit_width(2) = 4 hops of 150 us each.
  const sim::Time release = sim::msec(20) + 4 * sim::usec(150);
  EXPECT_EQ(job.process(0).finish_time(), release + sim::msec(1));  // 21.6 ms
  sim::Time last_end = 0;
  for (std::uint32_t r = 0; r < 4; ++r)
    last_end = std::max(last_end, job.process(r).finish_time());
  EXPECT_EQ(job.completion_time(), last_end);
}

TEST(MpiJob, IoRatioProbesSeparateComputeFromIo) {
  harness::Testbed tb(small_config());
  const pfs::FileId f = tb.create_file("a", 64 << 20);
  auto& job = tb.add_job("t", 1, tb.vanilla(), [&](std::uint32_t) {
    std::vector<Op> ops;
    for (int i = 0; i < 20; ++i) {
      ops.push_back(OpCompute{sim::usec(100)});
      ops.push_back(read_op(f, static_cast<std::uint64_t>(i) * 256 * 1024, 16 * 1024));
    }
    return std::make_unique<ScriptProgram>(std::move(ops));
  }, dualpar::Policy::kForcedNormal);
  tb.run();
  EXPECT_EQ(job.total_compute_time(), sim::msec(2));
  EXPECT_GT(job.total_io_time(), job.total_compute_time());
}

TEST(MpiJob, ProcessesBlockDistributedOverNodes) {
  harness::Testbed tb(small_config());  // 2 compute nodes
  auto& job = tb.add_job("t", 4, tb.vanilla(), [&](std::uint32_t) {
    return std::make_unique<ScriptProgram>(std::vector<Op>{OpCompute{sim::msec(1)}});
  }, dualpar::Policy::kForcedNormal);
  tb.run();
  // Block placement: consecutive ranks co-located, halves on distinct nodes.
  EXPECT_EQ(job.process(0).node().id(), job.process(1).node().id());
  EXPECT_EQ(job.process(2).node().id(), job.process(3).node().id());
  EXPECT_NE(job.process(0).node().id(), job.process(2).node().id());
}

TEST(MpiJob, CloneProgramResumesFromCurrentPosition) {
  ProgramContext ctx;
  std::vector<Op> ops;
  ops.push_back(OpCompute{sim::msec(1)});
  ops.push_back(OpCompute{sim::msec(2)});
  ops.push_back(OpCompute{sim::msec(3)});
  ScriptProgram prog(ops);
  (void)prog.next(ctx);  // consume first
  auto clone = prog.clone();
  const Op op = clone->next(ctx);
  ASSERT_TRUE(std::holds_alternative<OpCompute>(op));
  EXPECT_EQ(std::get<OpCompute>(op).duration, sim::msec(2));
  // The original is unaffected by the clone's progress.
  const Op op2 = prog.next(ctx);
  EXPECT_EQ(std::get<OpCompute>(op2).duration, sim::msec(2));
}

TEST(MpiJob, StaggeredStartTimes) {
  harness::Testbed tb(small_config());
  auto& j1 = tb.add_job("early", 1, tb.vanilla(), [&](std::uint32_t) {
    return std::make_unique<ScriptProgram>(std::vector<Op>{OpCompute{sim::msec(1)}});
  }, dualpar::Policy::kForcedNormal, sim::msec(0));
  auto& j2 = tb.add_job("late", 1, tb.vanilla(), [&](std::uint32_t) {
    return std::make_unique<ScriptProgram>(std::vector<Op>{OpCompute{sim::msec(1)}});
  }, dualpar::Policy::kForcedNormal, sim::secs(2));
  tb.run();
  EXPECT_EQ(j1.start_time(), 0);
  EXPECT_EQ(j2.start_time(), sim::secs(2));
  EXPECT_GE(j2.completion_time(), sim::secs(2));
}

TEST(MpiJob, RecentIoBandwidthReflectsTransfers) {
  harness::Testbed tb(small_config());
  const pfs::FileId f = tb.create_file("a", 64 << 20);
  auto& job = tb.add_job("t", 1, tb.vanilla(), [&](std::uint32_t) {
    std::vector<Op> ops;
    for (int i = 0; i < 8; ++i)
      ops.push_back(read_op(f, static_cast<std::uint64_t>(i) * (1 << 20), 1 << 20));
    return std::make_unique<ScriptProgram>(std::move(ops));
  }, dualpar::Policy::kForcedNormal);
  tb.run();
  // 8 MB read; bandwidth should be positive and below the wire limit.
  const double bw = job.process(0).recent_io_bandwidth();
  EXPECT_GT(bw, 1e6);
  EXPECT_LT(bw, 130e6);
}

}  // namespace
}  // namespace dpar::mpi
