// Fault-injection subsystem: plan validation, determinism of a faulted run,
// end-to-end failure semantics (media errors, drops + retry, bad sectors,
// crash/restart with queue loss), and the fault ledger.
#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "fault/status.hpp"
#include "harness/experiment_pool.hpp"
#include "harness/testbed.hpp"
#include "pfs/file_system.hpp"
#include "wl/workloads.hpp"

namespace dpar {
namespace {

harness::TestbedConfig small_cfg() {
  harness::TestbedConfig cfg;
  cfg.data_servers = 3;
  cfg.compute_nodes = 2;
  cfg.cores_per_node = 8;
  return cfg;
}

/// Run one demo-read job against `cfg` with the given driver choice and
/// return (completion time, total bytes, events). The workload is long
/// enough that every server stays busy for the whole run.
struct RunOut {
  sim::Time completion = 0;
  std::uint64_t bytes = 0;
  std::uint64_t events = 0;
  fault::Counters counters;
  bool emc_degraded_at_end = false;
};

RunOut run_demo(harness::TestbedConfig cfg, bool use_dualpar,
                std::uint64_t file_size = 8ull << 20) {
  harness::Testbed tb(cfg);
  wl::DemoConfig dc;
  dc.file = tb.create_file("f", file_size);
  dc.file_size = file_size;
  dc.segment_size = 64 * 1024;
  mpi::Job& job =
      use_dualpar
          ? tb.add_job("j", 4, tb.dualpar(),
                       [dc](std::uint32_t) { return wl::make_demo(dc); },
                       dualpar::Policy::kForcedDataDriven)
          : tb.add_job("j", 4, tb.vanilla(),
                       [dc](std::uint32_t) { return wl::make_demo(dc); },
                       dualpar::Policy::kForcedNormal);
  RunOut out;
  out.events = tb.run();
  out.completion = job.completion_time();
  out.bytes = job.total_bytes();
  if (tb.fault_injector()) out.counters = tb.fault_injector()->counters();
  out.emc_degraded_at_end = tb.emc().degraded();
  return out;
}

// ---------------------------------------------------------------------------
// Status algebra
// ---------------------------------------------------------------------------

TEST(FaultStatus, CombineKeepsTheWorst) {
  using fault::Status;
  EXPECT_EQ(fault::combine(Status::kOk, Status::kOk), Status::kOk);
  EXPECT_EQ(fault::combine(Status::kOk, Status::kMediaError), Status::kMediaError);
  EXPECT_EQ(fault::combine(Status::kTimeout, Status::kMediaError), Status::kTimeout);
  EXPECT_EQ(fault::combine(Status::kServerDown, Status::kTimeout), Status::kServerDown);
  EXPECT_TRUE(fault::ok(Status::kOk));
  EXPECT_FALSE(fault::ok(Status::kTimeout));
}

TEST(FaultStatus, FanInReportsWorstOfAllBranches) {
  using fault::Status;
  Status got = Status::kOk;
  fault::StatusFanIns<sim::UniqueFn<void(Status)>> fans;
  const std::uint32_t fan = fans.open(3, [&](Status st) { got = st; });
  fault::complete_status(fans, fan, Status::kOk);
  fault::complete_status(fans, fan, Status::kMediaError);
  EXPECT_EQ(got, Status::kOk);  // not fired yet
  fault::complete_status(fans, fan, Status::kOk);
  EXPECT_EQ(got, Status::kMediaError);
  EXPECT_EQ(fans.live(), 0u);
}

TEST(FaultStatus, RecycledFanInStartsFromOk) {
  // A recycled record starts from kOk again: a single clean branch reports
  // kOk even though the record's previous fan-in ended in an error.
  using fault::Status;
  Status got = Status::kMediaError;
  fault::StatusFanIns<sim::UniqueFn<void(Status)>> fans;
  fault::complete_status(fans, fans.open(1, [](Status) {}), Status::kTimeout);
  fault::complete_status(fans, fans.open(1, [&](Status st) { got = st; }), Status::kOk);
  EXPECT_EQ(got, Status::kOk);
}

// ---------------------------------------------------------------------------
// Plan validation
// ---------------------------------------------------------------------------

TEST(FaultPlanValidation, RejectsMalformedPlans) {
  {
    fault::FaultPlan p;
    p.disk.media_error_rate = -0.1;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    fault::FaultPlan p;
    p.net.drop_rate = 1.5;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    fault::FaultPlan p;
    p.server.stall_rate = std::nan("");
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    fault::FaultPlan p;
    p.disk.bad_sectors.push_back({0, 100, 0});  // zero sectors
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    fault::FaultPlan p;
    p.net.partitions.push_back({1, 2, sim::msec(10), sim::msec(10)});  // empty
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    fault::FaultPlan p;
    p.net.partitions.push_back({3, 3, 0, sim::msec(10)});  // self-partition
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    fault::FaultPlan p;
    p.server.crashes.push_back({0, sim::msec(20), sim::msec(10)});  // never restarts
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    fault::FaultPlan p;
    p.server.crashes.push_back({fault::kAllServers, 0, sim::msec(10)});
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    fault::FaultPlan p;
    p.disk.media_error_rate = 0.1;  // enabled -> retry policy must work
    p.retry.timeout_base = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
  {
    fault::FaultPlan p;
    p.net.drop_rate = 0.1;
    p.retry.backoff_factor = 0.5;
    EXPECT_THROW(p.validate(), std::invalid_argument);
  }
}

TEST(FaultPlanValidation, TestbedRejectsMalformedPlanEvenWhenInert) {
  // A negative rate can never fire (enabled() is false), but the testbed
  // still refuses it loudly, like every other config error.
  harness::TestbedConfig cfg = small_cfg();
  cfg.fault.disk.stall_rate = -1.0;
  EXPECT_THROW(harness::Testbed tb(cfg), std::invalid_argument);
}

TEST(FaultPlanValidation, TestbedRejectsCrashOfNonexistentServer) {
  harness::TestbedConfig cfg = small_cfg();
  cfg.fault.server.crashes.push_back({cfg.data_servers, 0, sim::msec(10)});
  EXPECT_THROW(harness::Testbed tb(cfg), std::invalid_argument);
}

TEST(FaultPlanValidation, DefaultPlanIsInertAndCreatesNoInjector) {
  fault::FaultPlan p;
  EXPECT_FALSE(p.enabled());
  EXPECT_NO_THROW(p.validate());
  harness::Testbed tb(small_cfg());
  EXPECT_EQ(tb.fault_injector(), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end failure semantics
// ---------------------------------------------------------------------------

TEST(FaultInjection, MediaErrorsPropagateWithoutRetriesOrHangs) {
  harness::TestbedConfig cfg = small_cfg();
  cfg.fault.disk.media_error_rate = 0.2;
  const RunOut r = run_demo(cfg, /*use_dualpar=*/false);
  EXPECT_GT(r.counters.disk_media_errors, 0u);
  EXPECT_GT(r.counters.driver_io_errors, 0u);
  // Media errors are final: reported upward, never retried.
  EXPECT_EQ(r.counters.client_retries, 0u);
  EXPECT_EQ(r.counters.client_ops_started, r.counters.client_ops_finished);
  EXPECT_EQ(r.bytes, 8ull << 20);
}

TEST(FaultInjection, DroppedMessagesRecoverThroughTimeoutAndRetry) {
  harness::TestbedConfig cfg = small_cfg();
  cfg.fault.net.drop_rate = 0.05;
  const RunOut r = run_demo(cfg, /*use_dualpar=*/false);
  EXPECT_GT(r.counters.net_dropped, 0u);
  EXPECT_GT(r.counters.client_timeouts, 0u);
  EXPECT_GT(r.counters.client_retries, 0u);
  EXPECT_GT(r.counters.client_recoveries, 0u);
  EXPECT_EQ(r.counters.client_failures, 0u);  // 5% loss never exhausts 6 retries
  EXPECT_EQ(r.counters.client_ops_started, r.counters.client_ops_finished);
  EXPECT_EQ(r.bytes, 8ull << 20);
}

TEST(FaultInjection, BadSectorsAreDeterministicAcrossRuns) {
  harness::TestbedConfig cfg = small_cfg();
  // A latent bad range at the front of every server's extent region.
  cfg.fault.disk.bad_sectors.push_back({fault::kAllServers, 0, 1u << 14});
  const RunOut a = run_demo(cfg, false);
  const RunOut b = run_demo(cfg, false);
  EXPECT_GT(a.counters.disk_bad_sector_hits, 0u);
  EXPECT_EQ(a.counters.disk_bad_sector_hits, b.counters.disk_bad_sector_hits);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.events, b.events);
}

TEST(FaultInjection, StallsDelayButNeverCorrupt) {
  harness::TestbedConfig cfg = small_cfg();
  const RunOut clean = run_demo(cfg, false);
  cfg.fault.disk.stall_rate = 0.1;
  cfg.fault.server.stall_rate = 0.1;
  cfg.fault.net.delay_rate = 0.1;
  const RunOut slow = run_demo(cfg, false);
  EXPECT_GT(slow.counters.disk_stalls + slow.counters.server_stalls +
                slow.counters.net_delayed, 0u);
  EXPECT_EQ(slow.counters.driver_io_errors, 0u);
  EXPECT_EQ(slow.bytes, clean.bytes);
  EXPECT_GT(slow.completion, clean.completion);
}

TEST(FaultInjection, TransientPartitionHealsViaRetry) {
  harness::TestbedConfig cfg = small_cfg();
  const RunOut clean = run_demo(cfg, false);
  // Cut compute node 0 (node id S+1 = 4) off from data server 0 for the
  // middle third of the clean run.
  cfg.fault.net.partitions.push_back(
      {cfg.data_servers + 1, 0, clean.completion / 3, 2 * clean.completion / 3});
  const RunOut r = run_demo(cfg, false);
  EXPECT_GT(r.counters.net_partition_drops, 0u);
  EXPECT_GT(r.counters.client_retries, 0u);
  EXPECT_EQ(r.counters.client_ops_started, r.counters.client_ops_finished);
  EXPECT_EQ(r.bytes, clean.bytes);
}

TEST(FaultInjection, CrashLosesQueuedWorkAndRestartRecovers) {
  harness::TestbedConfig cfg = small_cfg();
  const RunOut clean = run_demo(cfg, false);
  fault::ServerFaults::Crash crash;
  crash.server = 1;
  crash.at = clean.completion / 3;
  crash.restart_at = clean.completion / 3 + sim::msec(120);
  cfg.fault.server.crashes.push_back(crash);
  const RunOut r = run_demo(cfg, false);
  EXPECT_EQ(r.counters.server_crashes, 1u);
  EXPECT_EQ(r.counters.server_restarts, 1u);
  // The outage was felt: requests refused while down and/or queued work lost.
  EXPECT_GT(r.counters.server_refused_requests +
                r.counters.server_lost_completions, 0u);
  EXPECT_GT(r.counters.client_timeouts, 0u);
  EXPECT_EQ(r.counters.client_ops_started, r.counters.client_ops_finished);
  EXPECT_EQ(r.bytes, clean.bytes);
  // EMC tracked the outage even though the job ran vanilla.
  EXPECT_EQ(r.counters.emc_degraded_entries, 1u);
  EXPECT_EQ(r.counters.emc_degraded_exits, 1u);
  EXPECT_FALSE(r.emc_degraded_at_end);
}

/// One bare pfs::Client call (no MPI layer, no replication) spanning every
/// data server while server 1 is down from t=0 until `restart_at`.
struct CallOut {
  bool done = false;
  fault::Status status = fault::Status::kOk;
  fault::Counters counters;
};

CallOut call_through_crash(sim::Time restart_at, bool is_write) {
  harness::TestbedConfig cfg = small_cfg();
  cfg.fault.server.crashes.push_back({/*server=*/1, 0, restart_at});
  harness::Testbed tb(cfg);
  const std::uint64_t size = cfg.stripe_unit * cfg.data_servers;
  const pfs::FileId file = tb.create_file("f", size);
  pfs::Client client(tb.fs(), tb.compute_node(0).id());
  const pfs::Segment whole{0, size};
  CallOut out;
  // Issued after the crash event at t=0 has fired.
  tb.engine().at(sim::msec(1), [&] {
    client.io(file, std::span(&whole, 1), is_write, /*context=*/0,
              [&out](std::uint64_t, fault::Status st) {
                out.done = true;
                out.status = st;
              });
  });
  tb.run();
  out.counters = tb.fault_injector()->counters();
  return out;
}

TEST(FaultInjection, Rf1CallToFailStopServerEndsPermanent) {
  for (const bool is_write : {false, true}) {
    const CallOut r = call_through_crash(fault::kNeverRestarts, is_write);
    ASSERT_TRUE(r.done) << "write=" << is_write;
    EXPECT_EQ(r.status, fault::Status::kPermanentFailure) << "write=" << is_write;
    EXPECT_EQ(r.counters.client_permanent_failures, 1u) << "write=" << is_write;
    EXPECT_EQ(r.counters.client_failures, 1u) << "write=" << is_write;
    EXPECT_EQ(r.counters.client_ops_started, 1u) << "write=" << is_write;
    EXPECT_EQ(r.counters.client_ops_started, r.counters.client_ops_finished);
  }
}

TEST(FaultInjection, Rf1CallOutlastedByRestartingCrashEndsServerDown) {
  for (const bool is_write : {false, true}) {
    // The restart comes long after the retry budget (~4 s of timeouts and
    // capped backoff at the default policy) has run out.
    const CallOut r = call_through_crash(sim::secs(60), is_write);
    ASSERT_TRUE(r.done) << "write=" << is_write;
    EXPECT_EQ(r.status, fault::Status::kServerDown) << "write=" << is_write;
    EXPECT_EQ(r.counters.client_permanent_failures, 0u) << "write=" << is_write;
    EXPECT_EQ(r.counters.client_failures, 1u) << "write=" << is_write;
    EXPECT_EQ(r.counters.client_ops_started, 1u) << "write=" << is_write;
    EXPECT_EQ(r.counters.client_ops_started, r.counters.client_ops_finished);
  }
}

// ---------------------------------------------------------------------------
// Determinism: (seed, plan) fully decides a faulted run
// ---------------------------------------------------------------------------

TEST(FaultDeterminism, SameSeedSamePlanIsByteIdentical) {
  harness::TestbedConfig cfg = small_cfg();
  cfg.fault.net.drop_rate = 0.03;
  cfg.fault.disk.media_error_rate = 0.02;
  cfg.fault.disk.stall_rate = 0.05;
  const RunOut a = run_demo(cfg, true);
  const RunOut b = run_demo(cfg, true);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.counters, b.counters);
}

TEST(FaultDeterminism, DifferentSeedsDiverge) {
  harness::TestbedConfig cfg = small_cfg();
  cfg.fault.net.drop_rate = 0.05;
  const RunOut a = run_demo(cfg, false);
  cfg.fault.seed ^= 0x9e3779b9;
  const RunOut b = run_demo(cfg, false);
  // Same totals (all data delivered), different fault history.
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_NE(a.counters.net_dropped, b.counters.net_dropped);
}

TEST(FaultDeterminism, ExperimentPoolJobsDoNotChangeFaultedResults) {
  // The byte-determinism contract at any DPAR_JOBS: run the same faulted
  // experiments through a 1-thread pool and a 4-thread pool.
  auto submit_all = [](bench::ExperimentPool& pool) {
    for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
      pool.submit("faulted-" + std::to_string(seed), [seed] {
        harness::TestbedConfig cfg = small_cfg();
        cfg.fault.seed = seed;
        cfg.fault.net.drop_rate = 0.04;
        cfg.fault.disk.media_error_rate = 0.02;
        const RunOut r = run_demo(cfg, true, 4ull << 20);
        bench::ExperimentStats st;
        st.value = sim::to_seconds(r.completion);
        st.events = r.events;
        st.aux = {static_cast<double>(r.counters.net_dropped),
                  static_cast<double>(r.counters.client_retries),
                  static_cast<double>(r.counters.disk_media_errors)};
        return st;
      });
    }
  };
  bench::ExperimentPool p1(1), p4(4);
  submit_all(p1);
  submit_all(p4);
  const auto& r1 = p1.wait_all();
  const auto& r4 = p4.wait_all();
  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].stats.value, r4[i].stats.value) << r1[i].label;
    EXPECT_EQ(r1[i].stats.events, r4[i].stats.events) << r1[i].label;
    EXPECT_EQ(r1[i].stats.aux, r4[i].stats.aux) << r1[i].label;
  }
}

}  // namespace
}  // namespace dpar
