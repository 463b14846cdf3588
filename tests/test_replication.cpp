// N-way chunk replication: placement maps, replicated write fan-out,
// degraded reads with transparent failover, background re-replication, and
// the durability ledger. The byte-identity contract extends to replicated
// runs: a (seed, plan, rf, placement) tuple must produce the same output on
// every repeat and on ExperimentPool threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "determinism.hpp"
#include "fault/plan.hpp"
#include "harness/testbed.hpp"
#include "metrics/fault_report.hpp"
#include "metrics/replica_report.hpp"
#include "replica/placement.hpp"
#include "sim/rng.hpp"
#include "wl/workloads.hpp"

namespace dpar {
namespace {

replica::ReplicaMap make_map(std::uint32_t servers, std::uint32_t rf,
                             replica::Placement p,
                             std::uint32_t num_racks = 3) {
  replica::ReplicaConfig cfg;
  cfg.replication_factor = rf;
  cfg.placement = p;
  cfg.num_racks = num_racks;
  cfg.validate(servers);
  std::vector<std::uint32_t> racks(servers);
  for (std::uint32_t s = 0; s < servers; ++s) racks[s] = s % num_racks;
  return replica::ReplicaMap(pfs::StripeLayout{64 * 1024, servers}, cfg,
                             std::move(racks));
}

// ---------------------------------------------------------------------------
// Placement unit tests
// ---------------------------------------------------------------------------

TEST(ReplicationPlacement, RolesLandOnDistinctServersAndRoleZeroIsPrimary) {
  for (const replica::Placement p :
       {replica::Placement::kNodeLocal, replica::Placement::kRotational,
        replica::Placement::kRackAware}) {
    const replica::ReplicaMap map = make_map(9, 3, p);
    for (std::uint64_t stripe = 0; stripe < 200; ++stripe) {
      std::set<std::uint32_t> servers;
      for (std::uint32_t r = 0; r < 3; ++r)
        servers.insert(map.server_of(stripe, r));
      EXPECT_EQ(servers.size(), 3u) << to_string(p) << " stripe " << stripe;
      EXPECT_EQ(map.server_of(stripe, 0), stripe % 9)
          << to_string(p) << " role 0 must match the unreplicated layout";
    }
  }
}

TEST(ReplicationPlacement, RackAwareSpreadsCopiesOverRacks) {
  const replica::ReplicaMap map = make_map(9, 3, replica::Placement::kRackAware);
  for (std::uint64_t stripe = 0; stripe < 200; ++stripe) {
    std::set<std::uint32_t> racks;
    for (std::uint32_t r = 0; r < 3; ++r)
      racks.insert(map.rack_of(map.server_of(stripe, r)));
    // 9 servers over 3 racks: a fresh rack exists for every copy.
    EXPECT_EQ(racks.size(), 3u) << "stripe " << stripe;
  }
  // Degenerate case: more copies than racks still yields distinct servers.
  const replica::ReplicaMap two = make_map(4, 3, replica::Placement::kRackAware,
                                           /*num_racks=*/2);
  for (std::uint64_t stripe = 0; stripe < 40; ++stripe) {
    std::set<std::uint32_t> servers, racks;
    for (std::uint32_t r = 0; r < 3; ++r) {
      servers.insert(two.server_of(stripe, r));
      racks.insert(two.rack_of(two.server_of(stripe, r)));
    }
    EXPECT_EQ(servers.size(), 3u);
    EXPECT_EQ(racks.size(), 2u) << "both racks must hold a copy";
  }
}

TEST(ReplicationPlacement, RotationalSpreadsAReplicaLoadOverTheCluster) {
  // Chained declustering: the replicas of one primary's chunks must not all
  // pile onto a single successor (that is kNodeLocal's behaviour).
  const replica::ReplicaMap map = make_map(9, 2, replica::Placement::kRotational);
  std::set<std::uint32_t> replica_servers;
  for (std::uint64_t stripe = 0; stripe < 9 * 8; stripe += 9)
    replica_servers.insert(map.server_of(stripe, 1));  // primary is server 0
  EXPECT_GT(replica_servers.size(), 1u);
}

TEST(ReplicationPlacement, ReplicaRegionsAreDisjointPerRole) {
  const replica::ReplicaMap map = make_map(4, 3, replica::Placement::kRotational);
  const std::uint64_t size = 10ull << 20;
  const std::uint64_t unit = 64 * 1024;
  // Every copy's local offset must stay inside its role's region and inside
  // the allocated extent; regions of different roles must not interleave.
  std::uint64_t role1_max = 0, role2_min = UINT64_MAX;
  for (std::uint64_t off = 0; off < size; off += unit) {
    const std::uint64_t l0 = map.replica_local_offset(size, off, 0);
    const std::uint64_t l1 = map.replica_local_offset(size, off, 1);
    const std::uint64_t l2 = map.replica_local_offset(size, off, 2);
    EXPECT_LT(l0, l1);
    EXPECT_LT(l1, l2);
    EXPECT_LT(l2, map.extent_bytes(size));
    role1_max = std::max(role1_max, l1 + unit);
    role2_min = std::min(role2_min, l2);
  }
  EXPECT_LE(role1_max, role2_min) << "role regions interleave";
}

TEST(ReplicationConfig, ValidateRejectsMalformedConfigs) {
  replica::ReplicaConfig cfg;
  cfg.replication_factor = 0;
  EXPECT_THROW(cfg.validate(9), std::invalid_argument);
  cfg.replication_factor = 10;
  EXPECT_THROW(cfg.validate(9), std::invalid_argument);
  cfg.replication_factor = 3;
  cfg.num_racks = 0;
  EXPECT_THROW(cfg.validate(9), std::invalid_argument);
  cfg.num_racks = 3;
  cfg.repair_bandwidth = 0;
  EXPECT_THROW(cfg.validate(9), std::invalid_argument);
  cfg.repair_bandwidth = 40e6;
  EXPECT_NO_THROW(cfg.validate(9));
  // The testbed rejects them too, before any simulation state exists.
  harness::TestbedConfig tcfg;
  tcfg.replica.replication_factor = tcfg.data_servers + 1;
  EXPECT_THROW(harness::Testbed{tcfg}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Replicated runs: determinism across worker counts
// ---------------------------------------------------------------------------

/// Same shape as test_fault_determinism's random_plan: probabilistic faults, one
/// transient partition, one crash/restart window, all drawn from `seed`.
fault::FaultPlan random_plan(std::uint64_t seed, std::uint32_t servers,
                             std::uint32_t compute_nodes) {
  sim::Rng rng(sim::splitmix64(seed));
  fault::FaultPlan plan;
  plan.seed = seed;
  plan.disk.stall_rate = 0.02 + 0.08 * rng.uniform01();
  plan.disk.stall_time = sim::msec(1) + sim::msec(rng.uniform(4));
  plan.net.drop_rate = 0.002 + 0.006 * rng.uniform01();
  plan.net.delay_rate = 0.01 + 0.04 * rng.uniform01();
  plan.net.delay_time = sim::msec(1) + sim::msec(rng.uniform(4));
  fault::NetFaults::Partition part;
  part.node_a = rng.uniform(servers);
  part.node_b = servers + 1 + rng.uniform(compute_nodes);
  part.start = sim::msec(40 + rng.uniform(40));
  part.end = part.start + sim::msec(30 + rng.uniform(60));
  plan.net.partitions.push_back(part);
  fault::ServerFaults::Crash crash;
  crash.server = rng.uniform(servers);
  crash.at = sim::msec(60 + rng.uniform(60));
  crash.restart_at = crash.at + sim::msec(80 + rng.uniform(80));
  plan.server.crashes.push_back(crash);
  plan.validate();
  return plan;
}

/// What the tracker cut probe saw over one run, plus the end state.
struct TrackerLog {
  std::uint64_t cuts = 0;
  std::uint64_t peak_under = 0;
  std::string first_mismatch;  ///< empty while every cut agreed
  std::uint64_t final_incremental = 0;
  replica::DurabilityReport final_report;
};

/// Mid-run cut points for the tracker differential. From the first server
/// transition on, an event every kCutStep compares the tracker's
/// incremental under-replicated count with report()'s independent full
/// scan, for as long as jobs or repairs are live.
class CutProbe {
 public:
  CutProbe(harness::Testbed& tb, TrackerLog& log) : tb_(tb), log_(log) {
    tb.fault_injector()->add_server_listener([this](std::uint32_t, bool) {
      if (armed_) return;
      armed_ = true;
      arm_();
    });
  }
  // The listener and the scheduled cuts hold `this`.
  CutProbe(const CutProbe&) = delete;
  CutProbe& operator=(const CutProbe&) = delete;

 private:
  static constexpr sim::Time kCutStep = sim::msec(7);

  void arm_() {
    tb_.engine().after(kCutStep, [this] { cut_(); });
  }

  void cut_() {
    const replica::RepairManager& rm = *tb_.replica_manager();
    rm.check_invariants();
    const std::uint64_t incremental = rm.under_replicated_now();
    const std::uint64_t scan = rm.report().under_replicated_now;
    ++log_.cuts;
    log_.peak_under = std::max(log_.peak_under, scan);
    if (incremental != scan && log_.first_mismatch.empty())
      log_.first_mismatch = "t=" + std::to_string(tb_.engine().now()) +
                            " incremental=" + std::to_string(incremental) +
                            " scan=" + std::to_string(scan);
    if (!tb_.all_jobs_finished() || rm.repairs_in_flight() > 0) arm_();
  }

  harness::Testbed& tb_;
  TrackerLog& log_;
  bool armed_ = false;
};

/// Everything a replicated run observably produces, flattened: completion,
/// bytes, events, latency tails, the fault ledger AND the durability report.
/// With `cuts`, the run also carries a CutProbe and the signature its tally.
std::string rep_signature(const fault::FaultPlan& plan, std::uint32_t rf,
                          replica::Placement placement, replica::WriteFanout fanout,
                          TrackerLog* cuts = nullptr) {
  harness::TestbedConfig cfg;
  cfg.data_servers = 4;
  cfg.compute_nodes = 3;
  cfg.cores_per_node = 4;
  cfg.keep_traces = false;
  cfg.replica.replication_factor = rf;
  cfg.replica.placement = placement;
  cfg.replica.fanout = fanout;
  cfg.fault = plan;
  harness::Testbed tb(cfg);
  std::optional<CutProbe> probe;
  if (cuts) probe.emplace(tb, *cuts);
  wl::DemoConfig wr;
  wr.file = tb.create_file("w", 3ull << 20);
  wr.file_size = 3ull << 20;
  wr.segment_size = 64 * 1024;
  wr.is_write = true;
  wl::DemoConfig rd;
  rd.file = tb.create_file("r", 3ull << 20);
  rd.file_size = 3ull << 20;
  rd.segment_size = 64 * 1024;
  mpi::Job& writer = tb.add_job("w", 6, tb.vanilla(),
                                [wr](std::uint32_t) { return wl::make_demo(wr); },
                                dualpar::Policy::kForcedNormal);
  mpi::Job& reader = tb.add_job("r", 6, tb.vanilla(),
                                [rd](std::uint32_t) { return wl::make_demo(rd); },
                                dualpar::Policy::kForcedNormal);
  const std::uint64_t events = tb.run();
  std::string sig;
  sig += "w_completion=" + std::to_string(writer.completion_time());
  sig += " r_completion=" + std::to_string(reader.completion_time());
  sig += " bytes=" + std::to_string(writer.total_bytes() + reader.total_bytes());
  sig += " events=" + std::to_string(events);
  const sim::Histogram lat = reader.read_latency();
  sig += " rd_n=" + std::to_string(lat.count());
  sig += " rd_p99=" + std::to_string(lat.percentile(0.99));
  sig += "\n" + metrics::format_fault_report(tb.fault_injector()->counters());
  sig += metrics::format_replica_report(tb.replica_manager()->report());
  if (cuts) {
    sig += "cuts=" + std::to_string(cuts->cuts) +
           " peak_under=" + std::to_string(cuts->peak_under) + "\n";
    cuts->final_incremental = tb.replica_manager()->under_replicated_now();
    cuts->final_report = tb.replica_manager()->report();
  }
  return sig;
}

/// Tracker differential cases: random_plan's stalls, drops, partition and
/// crash at rf 2 and 3 over all three placements. A fail-stop case never
/// restarts its crashed server, so its copies stay invalid for good and the
/// writes aimed at them fail and post invalidation notes.
struct TrackerCase {
  std::uint64_t seed;
  std::uint32_t rf;
  replica::Placement placement;
  replica::WriteFanout fanout;
  bool fail_stop;
};

constexpr TrackerCase kTrackerCases[] = {
    {0x7a1, 2, replica::Placement::kNodeLocal, replica::WriteFanout::kStar, true},
    {0x7a2, 2, replica::Placement::kRotational, replica::WriteFanout::kChain, false},
    {0x7a3, 2, replica::Placement::kRackAware, replica::WriteFanout::kStar, false},
    {0x7a4, 3, replica::Placement::kNodeLocal, replica::WriteFanout::kChain, false},
    {0x7a5, 3, replica::Placement::kRotational, replica::WriteFanout::kStar, true},
    {0x7a6, 3, replica::Placement::kRackAware, replica::WriteFanout::kChain, true},
};

fault::FaultPlan tracker_plan(const TrackerCase& c) {
  fault::FaultPlan plan = random_plan(c.seed, 4, 3);
  if (c.fail_stop) plan.server.crashes[0].restart_at = fault::kNeverRestarts;
  plan.validate();
  return plan;
}

std::string tracker_signature(const TrackerCase& c, TrackerLog& log) {
  return rep_signature(tracker_plan(c), c.rf, c.placement, c.fanout, &log);
}

TEST(ReplicationDeterminism, ByteIdenticalAcrossWorkerCounts) {
  struct Case {
    std::uint64_t seed;
    std::uint32_t rf;
    replica::Placement placement;
    replica::WriteFanout fanout;
  };
  const Case cases[] = {
      {0xfade, 2, replica::Placement::kRotational, replica::WriteFanout::kStar},
      {0xc0de, 3, replica::Placement::kRackAware, replica::WriteFanout::kStar},
      {0xbeef, 3, replica::Placement::kNodeLocal, replica::WriteFanout::kChain},
  };
  // "Worker counts" are ExperimentPool thread counts.
  determinism::expect_deterministic(std::size(cases), [&cases](std::size_t i) {
    const Case& c = cases[i];
    return rep_signature(random_plan(c.seed, 4, 3), c.rf, c.placement, c.fanout);
  });
  // The tracker differential's plans, cut probe included: a cut that saw the
  // incremental count disagree with the full scan shows in the signature.
  const std::vector<std::string> tracker = determinism::expect_deterministic(
      std::size(kTrackerCases), [](std::size_t i) {
        TrackerLog log;
        const std::string sig = tracker_signature(kTrackerCases[i], log);
        return sig + "first_mismatch=" + log.first_mismatch;
      });
  for (const std::string& sig : tracker)
    EXPECT_TRUE(sig.ends_with("first_mismatch=")) << sig;
}

TEST(ReplicationDeterminism, LedgerIsNonTrivialUnderThePlan) {
  // Guard against the determinism sweep passing vacuously: the randomized
  // plans must actually invalidate copies and drive repair traffic.
  const std::string sig =
      rep_signature(random_plan(0xfade, 4, 3), 2, replica::Placement::kRotational,
                    replica::WriteFanout::kStar);
  EXPECT_NE(sig.find("server_crashes: 1"), std::string::npos) << sig;
  EXPECT_EQ(sig.find("chunks_invalidated: 0\n"), std::string::npos) << sig;
  EXPECT_EQ(sig.find("repair_ops_completed: 0\n"), std::string::npos) << sig;
}

// ---------------------------------------------------------------------------
// Incremental tracker vs full scan
// ---------------------------------------------------------------------------

TEST(ReplicationTracker, IncrementalCountMatchesFullScanAtEveryCut) {
  // The tracker keeps its under-replicated count incrementally (per-chunk
  // live counts moved by crashes, restarts, invalidation notes and repair
  // completions); report() recounts from scratch. They must agree at every
  // mid-run cut and at the end, whatever the plan throws at them.
  std::uint64_t write_failures = 0, blocked = 0, completed = 0;
  for (const TrackerCase& c : kTrackerCases) {
    SCOPED_TRACE("tracker seed " + std::to_string(c.seed) + " rf " +
                 std::to_string(c.rf) + " " + to_string(c.placement) +
                 (c.fail_stop ? " fail-stop" : " restarting"));
    TrackerLog log;
    tracker_signature(c, log);
    EXPECT_EQ(log.first_mismatch, "");
    EXPECT_EQ(log.final_incremental, log.final_report.under_replicated_now);
    // Non-vacuity: the probe ran through the outage and saw deficits.
    EXPECT_GT(log.cuts, 10u);
    EXPECT_GT(log.peak_under, 0u);
    EXPECT_EQ(log.final_report.lost_chunks, 0u);
    if (c.fail_stop) {
      EXPECT_GT(log.final_report.under_replicated_now, 0u)
          << "a fail-stop server's copies stay unrebuilt";
    }
    write_failures += log.final_report.counters.copy_write_failures;
    blocked += log.final_report.counters.repair_blocked_permanent;
    completed += log.final_report.counters.repair_ops_completed;
  }
  // The plans exercise every tracker input: write-failure notes, fail-stop
  // blocks and repair completions.
  EXPECT_GT(write_failures, 0u);
  EXPECT_GT(blocked, 0u);
  EXPECT_GT(completed, 0u);
}

TEST(ReplicationTracker, FileCreatedDuringAnOutageCountsItsDownCopiesAsNotLive) {
  // A fail-stop server is still down after the run; a file created then has
  // valid copies there that are not live, so it starts under-replicated.
  harness::TestbedConfig cfg;
  cfg.data_servers = 4;
  cfg.compute_nodes = 1;
  cfg.cores_per_node = 1;
  cfg.replica.replication_factor = 2;
  cfg.fault.server.crashes.push_back(
      {/*server=*/2, sim::msec(20), fault::kNeverRestarts});
  harness::Testbed tb(cfg);
  tb.create_file("early", 1ull << 20);
  tb.run();
  replica::RepairManager& rm = *tb.replica_manager();
  const std::uint64_t before = rm.under_replicated_now();
  tb.create_file("late", 1ull << 20);
  rm.check_invariants();
  EXPECT_EQ(rm.under_replicated_now(), rm.report().under_replicated_now);
  EXPECT_GT(rm.under_replicated_now(), before);
  EXPECT_EQ(rm.report().invalid_copies_now, before)
      << "the late file's copies are valid, only their server is down";
}

// ---------------------------------------------------------------------------
// Durability properties
// ---------------------------------------------------------------------------

struct DurabilityOut {
  replica::DurabilityReport report;
  fault::Counters fault_counters;
  std::uint64_t reader_bytes = 0;
};

DurabilityOut run_single_crash(std::uint64_t seed, std::uint32_t rf,
                               replica::Placement placement) {
  sim::Rng rng(sim::splitmix64(seed));
  harness::TestbedConfig cfg;
  cfg.data_servers = 4;
  cfg.compute_nodes = 3;
  cfg.cores_per_node = 4;
  cfg.keep_traces = false;
  cfg.replica.replication_factor = rf;
  cfg.replica.placement = placement;
  fault::ServerFaults::Crash crash;
  crash.server = rng.uniform(cfg.data_servers);
  crash.at = sim::msec(20 + rng.uniform(60));
  crash.restart_at = crash.at + sim::msec(100 + rng.uniform(200));
  cfg.fault.server.crashes.push_back(crash);
  harness::Testbed tb(cfg);
  wl::DemoConfig wr;
  wr.file = tb.create_file("w", 2ull << 20);
  wr.file_size = 2ull << 20;
  wr.segment_size = 64 * 1024;
  wr.is_write = true;
  wl::DemoConfig rd;
  rd.file = tb.create_file("r", 2ull << 20);
  rd.file_size = 2ull << 20;
  rd.segment_size = 64 * 1024;
  tb.add_job("w", 6, tb.vanilla(),
             [wr](std::uint32_t) { return wl::make_demo(wr); },
             dualpar::Policy::kForcedNormal);
  mpi::Job& reader = tb.add_job("r", 6, tb.vanilla(),
                                [rd](std::uint32_t) { return wl::make_demo(rd); },
                                dualpar::Policy::kForcedNormal);
  tb.run();
  return DurabilityOut{tb.replica_manager()->report(),
                       tb.fault_injector()->counters(), reader.total_bytes()};
}

TEST(ReplicationDurability, SingleRestartingCrashLosesNothingAtRf2Plus) {
  // The tentpole property: with rf >= 2, any single-server crash that
  // restarts leaves zero lost chunks, every read completes, and background
  // re-replication restores full redundancy before the run drains.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    for (const std::uint32_t rf : {2u, 3u}) {
      const DurabilityOut out = run_single_crash(
          seed, rf, rf == 2 ? replica::Placement::kRotational
                            : replica::Placement::kRackAware);
      SCOPED_TRACE("seed " + std::to_string(seed) + " rf " + std::to_string(rf));
      // The crash dirtied the dead server's copies...
      EXPECT_GT(out.report.counters.chunks_invalidated, 0u);
      // ...repair re-copied every one of them from surviving replicas...
      EXPECT_GT(out.report.counters.repair_ops_completed, 0u);
      EXPECT_GT(out.report.counters.repair_bytes_copied, 0u);
      EXPECT_EQ(out.report.under_replicated_now, 0u);
      EXPECT_EQ(out.report.invalid_copies_now, 0u);
      // ...nothing was lost, and every client op finished.
      EXPECT_EQ(out.report.lost_chunks, 0u);
      EXPECT_EQ(out.report.counters.chunks_unrepairable, 0u);
      EXPECT_EQ(out.fault_counters.client_ops_started,
                out.fault_counters.client_ops_finished);
      EXPECT_EQ(out.reader_bytes, 2ull << 20);
      // Redundancy pressure was real while it lasted.
      EXPECT_GT(out.report.under_replicated_chunk_seconds, 0.0);
    }
  }
}

TEST(ReplicationDurability, DegradedReadsFailOverDuringALongOutage) {
  // An outage longer than the read-failover patience (timeout + backoff +
  // timeout, ~250 ms under the default retry policy): reads whose primary is
  // down must switch to a surviving replica instead of waiting the outage
  // out, and no read may run out of replicas.
  harness::TestbedConfig cfg;
  cfg.data_servers = 4;
  cfg.compute_nodes = 3;
  cfg.cores_per_node = 4;
  cfg.keep_traces = false;
  cfg.replica.replication_factor = 2;
  cfg.fault.server.crashes.push_back(
      {/*server=*/1, sim::msec(20), sim::msec(900)});
  harness::Testbed tb(cfg);
  wl::DemoConfig rd;
  rd.file = tb.create_file("r", 4ull << 20);
  rd.file_size = 4ull << 20;
  rd.segment_size = 64 * 1024;
  mpi::Job& reader = tb.add_job("r", 6, tb.vanilla(),
                                [rd](std::uint32_t) { return wl::make_demo(rd); },
                                dualpar::Policy::kForcedNormal);
  tb.run();
  const replica::DurabilityReport rep = tb.replica_manager()->report();
  EXPECT_GT(rep.counters.degraded_reads, 0u);
  EXPECT_GT(rep.counters.failover_shards, 0u);
  EXPECT_GT(rep.counters.failover_latency_ns, 0u);
  EXPECT_EQ(rep.counters.out_of_replica_reads, 0u);
  EXPECT_EQ(reader.total_bytes(), 4ull << 20);
  EXPECT_EQ(rep.lost_chunks, 0u);
}

TEST(ReplicationDurability, Rf1KeepsThePreReplicationPath) {
  // replication_factor == 1 must not even build the subsystem: no manager,
  // no replica regions, the legacy request path byte-for-byte.
  harness::TestbedConfig cfg;
  cfg.data_servers = 4;
  cfg.compute_nodes = 3;
  cfg.cores_per_node = 4;
  harness::Testbed tb(cfg);
  EXPECT_EQ(tb.replica_manager(), nullptr);
  EXPECT_EQ(tb.fs().replicas(), nullptr);
}

// ---------------------------------------------------------------------------
// Fail-stop crashes (kNeverRestarts)
// ---------------------------------------------------------------------------

TEST(ReplicationDurability, FailStopCrashBlocksRepairButLosesNoChunkAtRf2) {
  // A server that never restarts: its own copies cannot be rebuilt (fixed
  // placement cannot re-home them), but every chunk still has a valid copy
  // elsewhere at rf >= 2, so nothing is lost and reads keep completing
  // through failover.
  harness::TestbedConfig cfg;
  cfg.data_servers = 4;
  cfg.compute_nodes = 3;
  cfg.cores_per_node = 4;
  cfg.keep_traces = false;
  cfg.replica.replication_factor = 2;
  cfg.fault.server.crashes.push_back(
      {/*server=*/2, sim::msec(20), fault::kNeverRestarts});
  harness::Testbed tb(cfg);
  wl::DemoConfig rd;
  rd.file = tb.create_file("r", 2ull << 20);
  rd.file_size = 2ull << 20;
  rd.segment_size = 64 * 1024;
  mpi::Job& reader = tb.add_job("r", 6, tb.vanilla(),
                                [rd](std::uint32_t) { return wl::make_demo(rd); },
                                dualpar::Policy::kForcedNormal);
  tb.run();
  const replica::DurabilityReport rep = tb.replica_manager()->report();
  EXPECT_EQ(reader.total_bytes(), 2ull << 20);
  EXPECT_EQ(rep.lost_chunks, 0u);
  EXPECT_GT(rep.counters.repair_blocked_permanent, 0u);
  EXPECT_GT(rep.under_replicated_now, 0u)
      << "a fail-stop server's copies stay unrebuilt under fixed placement";
  EXPECT_GT(rep.counters.degraded_reads, 0u);
}

#if DPAR_CHECK_INVARIANTS
TEST(ReplicationDeath, OutOfReplicaRoleTripsAssert) {
  // The failover ladder must stop at rf-1: asking the map for a role past
  // the last replica is the bug the invariant layer exists to catch.
  const replica::ReplicaMap map = make_map(4, 2, replica::Placement::kRotational);
  EXPECT_DEATH(map.server_of(0, 2), "replica role out of range");
}

TEST(ReplicationDeath, OutOfRangeInvalidationNoteTripsAssert) {
  // Client write paths hand post_invalid_copies raw chunk indices; a chunk
  // past the file's end or a role past rf-1 would index the tracker out of
  // bounds.
  auto post_and_run = [](std::uint64_t chunk, std::uint32_t role) {
    harness::TestbedConfig cfg;
    cfg.data_servers = 4;
    cfg.compute_nodes = 1;
    cfg.cores_per_node = 1;
    cfg.replica.replication_factor = 2;
    harness::Testbed tb(cfg);
    const pfs::FileId file = tb.create_file("f", 1ull << 20);  // 16 chunks
    tb.replica_manager()->post_invalid_copies(file, role, {chunk});
    tb.engine().run();
  };
  EXPECT_DEATH(post_and_run(16, 0), "invalidation note for a copy outside the file");
  EXPECT_DEATH(post_and_run(0, 2), "invalidation note for a copy outside the file");
}
#endif

}  // namespace
}  // namespace dpar
