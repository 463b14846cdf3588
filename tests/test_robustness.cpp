// Robustness: invalid configurations fail loudly, boundary workloads behave,
// and the public API rejects misuse instead of corrupting state.
#include <gtest/gtest.h>

#include "harness/testbed.hpp"
#include "wl/workloads.hpp"

namespace dpar {
namespace {

TEST(ConfigValidation, RejectsDegenerateClusters) {
  {
    harness::TestbedConfig cfg;
    cfg.data_servers = 0;
    EXPECT_THROW(harness::Testbed tb(cfg), std::invalid_argument);
  }
  {
    harness::TestbedConfig cfg;
    cfg.compute_nodes = 0;
    EXPECT_THROW(harness::Testbed tb(cfg), std::invalid_argument);
  }
  {
    harness::TestbedConfig cfg;
    cfg.cores_per_node = 0;
    EXPECT_THROW(harness::Testbed tb(cfg), std::invalid_argument);
  }
  {
    harness::TestbedConfig cfg;
    cfg.stripe_unit = 0;
    EXPECT_THROW(harness::Testbed tb(cfg), std::invalid_argument);
  }
  {
    harness::TestbedConfig cfg;
    cfg.dualpar.cache_quota = 0;
    EXPECT_THROW(harness::Testbed tb(cfg), std::invalid_argument);
  }
}

TEST(ConfigValidation, MinimalClusterWorks) {
  harness::TestbedConfig cfg;
  cfg.data_servers = 1;
  cfg.compute_nodes = 1;
  cfg.cores_per_node = 1;
  harness::Testbed tb(cfg);
  wl::DemoConfig dc;
  dc.file = tb.create_file("f", 1 << 20);
  dc.file_size = 1 << 20;
  dc.segment_size = 16 * 1024;
  auto& job = tb.add_job("j", 1, tb.dualpar(),
                         [dc](std::uint32_t) { return wl::make_demo(dc); },
                         dualpar::Policy::kForcedDataDriven);
  tb.run();
  EXPECT_EQ(job.total_bytes(), 1u << 20);
}

TEST(Boundaries, ZeroLengthFileJobEndsCleanly) {
  harness::TestbedConfig cfg;
  cfg.data_servers = 2;
  cfg.compute_nodes = 1;
  harness::Testbed tb(cfg);
  wl::DemoConfig dc;
  dc.file = tb.create_file("f", 1 << 20);
  dc.file_size = 0;
  auto& job = tb.add_job("j", 4, tb.dualpar(),
                         [dc](std::uint32_t) { return wl::make_demo(dc); },
                         dualpar::Policy::kForcedDataDriven);
  tb.run();
  EXPECT_TRUE(job.finished());
  EXPECT_EQ(job.total_bytes(), 0u);
}

TEST(Boundaries, SingleByteRequestsSurviveTheFullStack) {
  harness::TestbedConfig cfg;
  cfg.data_servers = 3;
  cfg.compute_nodes = 2;
  harness::Testbed tb(cfg);
  wl::NoncontigConfig nc;
  nc.columns = 4;
  nc.elmt_count = 1;  // 4-byte elements — BTIO-at-256-procs territory
  nc.rows = 64;
  nc.file = tb.create_file("f", nc.columns * 4 * nc.rows);
  auto& job = tb.add_job("tiny", 4, tb.dualpar(),
                         [nc](std::uint32_t) { return wl::make_noncontig(nc); },
                         dualpar::Policy::kForcedDataDriven);
  tb.run();
  EXPECT_EQ(job.total_bytes(), 4u * 4 * 64);
}

TEST(Boundaries, RequestAtExactFileEnd) {
  harness::TestbedConfig cfg;
  cfg.data_servers = 3;
  cfg.compute_nodes = 1;
  harness::Testbed tb(cfg);
  const std::uint64_t fsize = 3 * 64 * 1024 + 100;  // not unit-aligned
  wl::IorConfig ic;
  ic.file_size = fsize - fsize % (32 * 1024);
  ic.request_size = 32 * 1024;
  ic.file = tb.create_file("f", fsize);
  auto& job = tb.add_job("e", 1, tb.vanilla(),
                         [ic](std::uint32_t) { return wl::make_ior(ic); },
                         dualpar::Policy::kForcedNormal);
  tb.run();
  EXPECT_TRUE(job.finished());
}

TEST(Boundaries, ManyJobsSequentially) {
  harness::TestbedConfig cfg;
  cfg.data_servers = 2;
  cfg.compute_nodes = 2;
  harness::Testbed tb(cfg);
  for (int i = 0; i < 6; ++i) {
    wl::DemoConfig dc;
    dc.file = tb.create_file("f" + std::to_string(i), 1 << 20);
    dc.file_size = 1 << 20;
    dc.segment_size = 64 * 1024;
    tb.add_job("j" + std::to_string(i), 2, tb.dualpar(),
               [dc](std::uint32_t) { return wl::make_demo(dc); },
               dualpar::Policy::kForcedDataDriven, sim::msec(100 * i));
  }
  tb.run();
  EXPECT_TRUE(tb.all_jobs_finished());
}

TEST(Boundaries, HugeQuotaDoesNotOverrun) {
  harness::TestbedConfig cfg;
  cfg.data_servers = 2;
  cfg.compute_nodes = 1;
  cfg.dualpar.cache_quota = 1ull << 40;  // quota far beyond the file
  harness::Testbed tb(cfg);
  wl::DemoConfig dc;
  dc.file = tb.create_file("f", 2 << 20);
  dc.file_size = 2 << 20;
  dc.segment_size = 16 * 1024;
  auto& job = tb.add_job("q", 2, tb.dualpar(),
                         [dc](std::uint32_t) { return wl::make_demo(dc); },
                         dualpar::Policy::kForcedDataDriven);
  tb.run();
  EXPECT_TRUE(job.finished());
  // The whole remaining file fits in one prefetch batch — one cycle.
  EXPECT_EQ(tb.dualpar().stats().cycles, 1u);
}

// ---------------------------------------------------------------------------
// Degraded-mode DualPar: a data server crashes mid-run and restarts.
// ---------------------------------------------------------------------------

namespace crashdemo {

struct Out {
  sim::Time completion = 0;
  std::uint64_t bytes = 0;
  bool saw_degraded_mid_outage = false;
  bool degraded_at_end = false;
  fault::Counters counters;
};

/// Demo-read workload, optionally with a mid-run crash+restart of server 1.
/// `crash_at` of 0 means no crash: the plan stays inert and the run takes the
/// fault-free fast path, which is exactly the baseline we compare against.
Out run(bool use_dualpar, sim::Time crash_at, sim::Time restart_at) {
  harness::TestbedConfig cfg;
  cfg.data_servers = 3;
  cfg.compute_nodes = 2;
  cfg.cores_per_node = 8;
  cfg.keep_traces = false;
  if (crash_at > 0) cfg.fault.server.crashes.push_back({1, crash_at, restart_at});
  harness::Testbed tb(cfg);
  wl::DemoConfig dc;
  dc.file = tb.create_file("f", 8 << 20);
  dc.file_size = 8 << 20;
  dc.segment_size = 64 * 1024;
  auto& job = use_dualpar
                  ? tb.add_job("j", 4, tb.dualpar(),
                               [dc](std::uint32_t) { return wl::make_demo(dc); },
                               dualpar::Policy::kForcedDataDriven)
                  : tb.add_job("j", 4, tb.vanilla(),
                               [dc](std::uint32_t) { return wl::make_demo(dc); },
                               dualpar::Policy::kForcedNormal);
  Out out;
  if (crash_at > 0) {
    // Probe the EMC in the middle of the outage: the scheduler must have
    // fallen back to vanilla independent execution by then.
    tb.engine().at((crash_at + restart_at) / 2, [&tb, &out] {
      out.saw_degraded_mid_outage = tb.emc().degraded();
    });
  }
  tb.run();
  out.completion = job.completion_time();
  out.bytes = job.total_bytes();
  out.degraded_at_end = tb.emc().degraded();
  if (tb.fault_injector()) out.counters = tb.fault_injector()->counters();
  return out;
}

}  // namespace crashdemo

TEST(CrashRecovery, VanillaCompletesThroughMidRunCrashAndRestart) {
  const crashdemo::Out clean = crashdemo::run(false, 0, 0);
  const sim::Time at = clean.completion / 3;
  const crashdemo::Out r = crashdemo::run(false, at, at + sim::msec(120));
  EXPECT_EQ(r.bytes, clean.bytes);
  EXPECT_EQ(r.counters.server_crashes, 1u);
  EXPECT_EQ(r.counters.server_restarts, 1u);
  EXPECT_GT(r.counters.client_timeouts, 0u);
  EXPECT_EQ(r.counters.client_ops_started, r.counters.client_ops_finished);
  // The outage cost time but never data.
  EXPECT_GT(r.completion, clean.completion);
}

TEST(CrashRecovery, DualParFallsBackDuringOutageAndReengagesAfter) {
  const crashdemo::Out clean = crashdemo::run(true, 0, 0);
  const sim::Time at = clean.completion / 3;
  const crashdemo::Out r = crashdemo::run(true, at, at + sim::msec(120));
  // Correctness through the outage: every byte delivered, no leaked requests.
  EXPECT_EQ(r.bytes, clean.bytes);
  EXPECT_EQ(r.counters.client_ops_started, r.counters.client_ops_finished);
  // Degraded-mode state machine: entered on the crash, felt mid-outage,
  // exited after the restart, normal again by the end of the run.
  EXPECT_TRUE(r.saw_degraded_mid_outage);
  EXPECT_GE(r.counters.emc_degraded_entries, 1u);
  EXPECT_GE(r.counters.emc_degraded_exits, 1u);
  EXPECT_FALSE(r.degraded_at_end);
}

}  // namespace
}  // namespace dpar
