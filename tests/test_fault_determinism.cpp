// Fault determinism under randomized plans: every fault stream (disk
// verdicts, net drops/delays, server stalls, crash schedules) and the
// client-side timeout/retry protocol must produce byte-identical results
// when a run is repeated in one process and when runs execute concurrently
// on ExperimentPool worker threads (1 vs 4). Plans are randomized per seed
// so the suite sweeps many fault interleavings instead of one hand-picked
// schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "determinism.hpp"
#include "fault/plan.hpp"
#include "harness/testbed.hpp"
#include "metrics/fault_report.hpp"
#include "sim/rng.hpp"
#include "wl/workloads.hpp"

namespace dpar {
namespace {

/// Randomized fault plan: probabilistic disk + server stalls and
/// net faults, one transient partition between a compute node and a server,
/// and one crash/restart window. All drawn from `seed` so a plan is
/// reproducible and each seed exercises a different interleaving.
fault::FaultPlan random_plan(std::uint64_t seed, std::uint32_t servers,
                             std::uint32_t compute_nodes) {
  sim::Rng rng(sim::splitmix64(seed));
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.disk.stall_rate = 0.02 + 0.08 * rng.uniform01();
  plan.disk.stall_time = sim::msec(1) + sim::msec(rng.uniform(4));
  plan.server.stall_rate = 0.01 + 0.04 * rng.uniform01();
  plan.server.stall_time = sim::msec(1) + sim::msec(rng.uniform(3));
  plan.net.drop_rate = 0.002 + 0.006 * rng.uniform01();
  plan.net.delay_rate = 0.01 + 0.04 * rng.uniform01();
  plan.net.delay_time = sim::msec(1) + sim::msec(rng.uniform(4));
  // Partition a (compute node, data server) pair mid-run. Node ids: servers
  // first, then compute nodes (testbed layout).
  fault::NetFaults::Partition part;
  part.node_a = rng.uniform(servers);
  part.node_b = servers + rng.uniform(compute_nodes);
  part.start = sim::msec(40 + rng.uniform(40));
  part.end = part.start + sim::msec(30 + rng.uniform(60));
  plan.net.partitions.push_back(part);
  // One crash/restart window on a random server.
  fault::ServerFaults::Crash crash;
  crash.server = rng.uniform(servers);
  crash.at = sim::msec(60 + rng.uniform(60));
  crash.restart_at = crash.at + sim::msec(80 + rng.uniform(80));
  plan.server.crashes.push_back(crash);
  plan.validate();
  return plan;
}

/// Everything a run can observably produce, flattened to a string: simulated
/// completion time, bytes, event count, the full fault ledger, and the
/// latency distributions (mean + tail). Two runs are "byte-identical" for
/// the determinism contract iff these strings match.
std::string run_signature(std::uint64_t seed, bool use_dualpar) {
  harness::TestbedConfig cfg;
  cfg.data_servers = 4;
  cfg.compute_nodes = 3;
  cfg.cores_per_node = 4;
  cfg.keep_traces = false;
  cfg.fault = random_plan(seed, cfg.data_servers, cfg.compute_nodes);
  harness::Testbed tb(cfg);
  wl::DemoConfig dc;
  dc.file = tb.create_file("f", 6ull << 20);
  dc.file_size = 6ull << 20;
  dc.segment_size = 64 * 1024;
  mpi::Job& job =
      use_dualpar
          ? tb.add_job("j", 6, tb.dualpar(),
                       [dc](std::uint32_t) { return wl::make_demo(dc); },
                       dualpar::Policy::kForcedDataDriven)
          : tb.add_job("j", 6, tb.vanilla(),
                       [dc](std::uint32_t) { return wl::make_demo(dc); },
                       dualpar::Policy::kForcedNormal);
  const std::uint64_t events = tb.run();
  const sim::Histogram rd = job.read_latency();
  const sim::Histogram wr = job.write_latency();
  std::string sig;
  sig += "completion=" + std::to_string(job.completion_time());
  sig += " bytes=" + std::to_string(job.total_bytes());
  sig += " events=" + std::to_string(events);
  sig += " rd_n=" + std::to_string(rd.count());
  sig += " rd_mean=" + std::to_string(rd.mean());
  sig += " rd_p99=" + std::to_string(rd.percentile(0.99));
  sig += " wr_n=" + std::to_string(wr.count());
  sig += "\n" + metrics::format_fault_report(tb.fault_injector()->counters());
  return sig;
}

// "Worker counts" are ExperimentPool thread counts: runs of different seeds
// execute concurrently and must not perturb one another.
TEST(PdesFaultDeterminism, VanillaByteIdenticalAcrossWorkerCounts) {
  const std::vector<std::uint64_t> seeds = {0xfade, 0xc0de, 0xbeef};
  determinism::expect_deterministic(seeds.size(), [&seeds](std::size_t i) {
    return run_signature(seeds[i], /*use_dualpar=*/false);
  });
}

TEST(PdesFaultDeterminism, DualParByteIdenticalAcrossWorkerCounts) {
  // DualPar adds the EMC's degraded mode, ghost pre-execution and the global
  // cache's crash invalidation to the fault paths.
  const std::vector<std::uint64_t> seeds = {0xfade, 0xd00d};
  determinism::expect_deterministic(seeds.size(), [&seeds](std::size_t i) {
    return run_signature(seeds[i], /*use_dualpar=*/true);
  });
}

TEST(PdesFaultDeterminism, FaultLedgerIsNonTrivialUnderThePlan) {
  // Guard against the suite silently passing because nothing ever faulted:
  // the randomized plans above must actually exercise the fault paths.
  const fault::FaultPlan plan = random_plan(0xfade, 4, 3);
  ASSERT_TRUE(plan.enabled());
  const std::string sig = run_signature(0xfade, /*use_dualpar=*/false);
  // The ledger rides inside the signature; spot-check the live streams.
  EXPECT_NE(sig.find("disk_stalls"), std::string::npos);
  EXPECT_NE(sig.find("server_crashes"), std::string::npos);
}

}  // namespace
}  // namespace dpar
