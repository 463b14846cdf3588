// Replication sweep — durability cost and recovery behaviour of N-way chunk
// replication.
//
// Three experiments, fully deterministic for a given (seed, plan):
//  1. Foreground cost of redundancy: rf x placement sweep on a clean run —
//     write/read latency p50/p99 and job throughput. Writing rf copies costs
//     NIC and disk bandwidth even when nothing fails; placement decides whose
//     disks pay.
//  2. Crash plans: one data server crashes mid-run and restarts. Reads whose
//     primary is down fail over to surviving replicas (degraded reads) and
//     the repair manager re-copies everything the crash invalidated,
//     competing with the foreground through the same disks and NICs. Reported
//     per cell: foreground percentiles plus the durability ledger (degraded
//     reads, failover shards, repair progress, lost chunks).
//  3. Write fan-out shape: star vs chain at the largest rf, clean run.
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "harness.hpp"
#include "metrics/replica_report.hpp"
#include "wl/workloads.hpp"

using namespace dpar;

namespace {

constexpr replica::Placement kPlacements[] = {
    replica::Placement::kNodeLocal,
    replica::Placement::kRotational,
    replica::Placement::kRackAware,
};

struct CellResult {
  double write_p50 = 0, write_p99 = 0;  ///< microseconds
  double read_p50 = 0, read_p99 = 0;
  double degraded = 0, failover = 0;
  double repair_done = 0, repair_issued = 0, repair_mb = 0;
  double under_now = 0, lost = 0;
};

/// aux layout of one experiment (indices into ExperimentStats::aux).
enum Aux {
  kWriteP50, kWriteP99, kReadP50, kReadP99,
  kDegraded, kFailover, kRepairDone, kRepairIssued, kRepairMb,
  kUnderNow, kLost, kAuxCount,
};

bench::ExperimentStats run_one(std::uint32_t rf, replica::Placement placement,
                               replica::WriteFanout fanout, bool crash,
                               std::uint64_t scale) {
  harness::TestbedConfig cfg = bench::paper_config();
  cfg.keep_traces = false;
  cfg.replica.replication_factor = rf;
  cfg.replica.placement = placement;
  cfg.replica.fanout = fanout;
  if (crash) {
    // The outage must outlast a read shard's failover patience (timeout +
    // backoff + second timeout, ~250 ms under the default retry policy) or
    // every retry would land after the restart and no degraded read could
    // ever happen. Fixed in simulated time so any DPAR_SCALE sees the crash
    // mid-run.
    cfg.fault.server.crashes.push_back(
        {/*server=*/4, sim::msec(30), sim::msec(480)});
  }
  harness::Testbed tb(cfg);
  mpi::IoDriver& drv = bench::driver_for(tb, bench::Variant::kVanilla);
  const dualpar::Policy pol = bench::policy_for(bench::Variant::kVanilla);
  mpi::Job* job;
  if (crash) {
    // Crash cells read throughout the run: a read whose primary is down
    // blocks until it fails over (or the server restarts), so the workload
    // is guaranteed to overlap the outage and exercise degraded reads.
    wl::DemoConfig dc;
    dc.file_size = (1ull << 30) / scale;
    dc.file = tb.create_file("replica.dat", dc.file_size);
    dc.segment_size = 64 * 1024;
    job = &tb.add_job("replica", 16, drv,
                      [dc](std::uint32_t) { return wl::make_demo(dc); }, pol);
  } else {
    // Clean cells run BTIO (write steps + read-back): the writes pay the
    // rf-way fan-out this table prices.
    wl::BtioConfig bc;
    bc.total_bytes = (1ull << 30) / scale;
    bc.row_bytes = 1 << 20;  // 64 KB per rank per row, not BT's tiny cells
    bc.write_steps = 5;
    bc.read_back = true;
    bc.file = tb.create_file("replica.dat", bc.total_bytes * 2);
    job = &tb.add_job("replica", 16, drv,
                      [bc](std::uint32_t) { return wl::make_btio(bc); }, pol);
  }
  bench::ExperimentStats st;
  st.events = tb.run();
  st.value = tb.job_throughput_mbs(*job);
  const sim::Histogram w = job->write_latency();
  const sim::Histogram r = job->read_latency();
  st.aux.assign(kAuxCount, 0.0);
  st.aux[kWriteP50] = w.percentile(0.50);
  st.aux[kWriteP99] = w.percentile(0.99);
  st.aux[kReadP50] = r.percentile(0.50);
  st.aux[kReadP99] = r.percentile(0.99);
  if (replica::RepairManager* mgr = tb.replica_manager()) {
    const replica::DurabilityReport rep = mgr->report();
    st.aux[kDegraded] = static_cast<double>(rep.counters.degraded_reads);
    st.aux[kFailover] = static_cast<double>(rep.counters.failover_shards);
    st.aux[kRepairDone] = static_cast<double>(rep.counters.repair_ops_completed);
    st.aux[kRepairIssued] = static_cast<double>(rep.counters.repair_ops_issued);
    st.aux[kRepairMb] =
        static_cast<double>(rep.counters.repair_bytes_copied) / 1e6;
    st.aux[kUnderNow] = static_cast<double>(rep.under_replicated_now);
    st.aux[kLost] = static_cast<double>(rep.lost_chunks);
  }
  return st;
}

std::string cell_label(std::uint32_t rf, replica::Placement p, bool crash) {
  return "rf" + std::to_string(rf) + "/" + replica::to_string(p) + "/" +
         (crash ? "crash" : "clean");
}

char* fmt(char (&buf)[32], const char* f, double v) {
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t scale = bench::scale_divisor(argc, argv);
  std::printf("Replication sweep (N-way chunks, degraded reads, repair; "
              "scale 1/%llu)\n", static_cast<unsigned long long>(scale));
  // Plan banner: pure config, identical at every DPAR_JOBS value.
  std::printf("# plan: seed=0x%llx crash=server4@30-480ms\n",
              static_cast<unsigned long long>(fault::FaultPlan{}.seed));

  bench::ExperimentPool pool;

  // rf 1 has no placement choice; rf {2,3} sweep all three policies, clean
  // and crashed. Fan-out is star except for the dedicated chain rows.
  struct Cell {
    std::uint32_t rf;
    replica::Placement placement;
    bool crash;
    std::size_t idx = 0;
  };
  std::vector<Cell> cells;
  for (const bool crash : {false, true}) {
    cells.push_back({1, replica::Placement::kRotational, crash});
    for (const std::uint32_t rf : {2u, 3u})
      for (const replica::Placement p : kPlacements)
        cells.push_back({rf, p, crash});
  }
  for (Cell& c : cells) {
    c.idx = pool.submit(cell_label(c.rf, c.placement, c.crash),
                        [c, scale] {
                          return run_one(c.rf, c.placement,
                                         replica::WriteFanout::kStar, c.crash,
                                         scale);
                        });
  }
  // cells[5] is rf3/rotational/clean (the star twin of the chain row below).
  const std::size_t star_idx = cells[5].idx;
  const std::size_t chain_idx =
      pool.submit("rf3/rotational/chain", [scale] {
        return run_one(3, replica::Placement::kRotational,
                       replica::WriteFanout::kChain, false, scale);
      });
  pool.wait_all();

  bench::Table cost("Foreground cost of redundancy (clean runs, star fan-out)");
  cost.set_headers({"cell", "MB/s", "wr p50 (us)", "wr p99", "rd p50",
                    "rd p99"});
  for (const Cell& c : cells) {
    if (c.crash) continue;
    const auto& rec = pool.record(c.idx);
    char a[32], b[32], d[32], e[32], f[32];
    cost.add_text_row(cell_label(c.rf, c.placement, c.crash),
                      {fmt(a, "%.1f", rec.stats.value),
                       fmt(b, "%.0f", rec.stats.aux[kWriteP50]),
                       fmt(d, "%.0f", rec.stats.aux[kWriteP99]),
                       fmt(e, "%.0f", rec.stats.aux[kReadP50]),
                       fmt(f, "%.0f", rec.stats.aux[kReadP99])});
  }
  cost.add_note("rf1 is the pre-replication baseline; every extra copy is "
                "foreground NIC + disk traffic");
  cost.print();

  bench::Table rec_t("Crash plans (server 4 down 30-480 ms): degraded reads "
                     "and repair");
  rec_t.set_headers({"cell", "MB/s", "rd p99", "degraded", "failover",
                     "repaired", "repair MB", "under now", "lost"});
  for (const Cell& c : cells) {
    if (!c.crash) continue;
    const auto& rec = pool.record(c.idx);
    char a[32], b[32], d[32], e[32], f[32], g[32], h[32], i[32];
    std::snprintf(f, sizeof f, "%.0f/%.0f", rec.stats.aux[kRepairDone],
                  rec.stats.aux[kRepairIssued]);
    rec_t.add_text_row(cell_label(c.rf, c.placement, c.crash),
                       {fmt(a, "%.1f", rec.stats.value),
                        fmt(b, "%.0f", rec.stats.aux[kReadP99]),
                        fmt(d, "%.0f", rec.stats.aux[kDegraded]),
                        fmt(e, "%.0f", rec.stats.aux[kFailover]), f,
                        fmt(g, "%.1f", rec.stats.aux[kRepairMb]),
                        fmt(h, "%.0f", rec.stats.aux[kUnderNow]),
                        fmt(i, "%.0f", rec.stats.aux[kLost])});
  }
  rec_t.add_note("rf1 has no replicas: reads of the down server's chunks can "
                 "only retry, and nothing is repairable");
  rec_t.add_note("rf>=2: repair restores full redundancy (under now = 0) and "
                 "no chunk is lost");
  rec_t.print();

  bench::Table fan("Write fan-out shape at rf=3 (rotational, clean)");
  fan.set_headers({"fan-out", "MB/s", "wr p50 (us)", "wr p99"});
  for (const auto& [name, idx] :
       {std::pair<const char*, std::size_t>{"star", star_idx},
        std::pair<const char*, std::size_t>{"chain", chain_idx}}) {
    const auto& rec = pool.record(idx);
    char a[32], b[32], d[32];
    fan.add_text_row(name, {fmt(a, "%.1f", rec.stats.value),
                            fmt(b, "%.0f", rec.stats.aux[kWriteP50]),
                            fmt(d, "%.0f", rec.stats.aux[kWriteP99])});
  }
  fan.add_note("star: client sends all copies itself; chain: each copy relays "
               "through the previous copy's server, serialising the stages");
  fan.print();

  bench::write_perf_json("bench_replication", pool);
  return 0;
}
