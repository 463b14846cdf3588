// Cluster-scale sweeps beyond the paper's 9-server testbed: weak scaling
// (per-server data held constant as servers grow 9 -> 256 and processes grow
// proportionally to 4096), strong scaling (fixed dataset, processes swept
// 64 -> 4096), DualPar vs vanilla MPI-IO — plus a decomposition-heavy weak-
// scaling sweep that times the closed-form striping decomposition against
// the frozen per-chunk reference loop (the pre-change code path).
//
// Simulated metrics (events, MB/s) are deterministic and go to stdout; wall
// times, events/sec, the closed/ref decomposition timings and the process's
// peak RSS go to the shared perf report (BENCH_sim_core.json). Labels
// respect DPAR_BENCH_FILTER (substring): filtered-out sweep points print "-".
#include <algorithm>
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"
#include "oracles/layout_reference.hpp"
#include "sim/rng.hpp"
#include "wl/workloads.hpp"

using namespace dpar;
using bench::Variant;

namespace {

constexpr std::size_t kSkipped = static_cast<std::size_t>(-1);

harness::TestbedConfig scaleout_config(std::uint32_t servers, std::uint32_t nodes) {
  harness::TestbedConfig cfg = bench::paper_config();
  cfg.data_servers = servers;
  cfg.compute_nodes = nodes;
  return cfg;
}

/// IOR-style read job: every rank sequentially reads its 1/N block.
bench::ExperimentStats run_ior(std::uint32_t servers, std::uint32_t nodes,
                               std::uint32_t procs, std::uint64_t file_size,
                               Variant v) {
  harness::Testbed tb(scaleout_config(servers, nodes));
  wl::IorConfig cfg;
  cfg.file_size = file_size;
  // Per-rank block must hold at least one request at 4096 processes under
  // aggressive DPAR_SCALE divisors.
  cfg.request_size = std::max<std::uint64_t>(
      4096, std::min<std::uint64_t>(64 * 1024, file_size / procs));
  cfg.file = tb.create_file("ior", cfg.file_size);
  tb.add_job("ior", procs, bench::driver_for(tb, v),
             [cfg](std::uint32_t) { return wl::make_ior(cfg); },
             bench::policy_for(v));
  const std::uint64_t events = tb.run();
  return {tb.system_throughput_mbs(), events, {}};
}

/// One decomposition sweep point: `iters` randomized segments against a
/// layout of `servers` servers, per-server share held constant (64 stripes
/// per server per segment), on either the closed form or the frozen loop.
/// The headline value and the run/byte totals are identical for both paths
/// (that is the differential guarantee); only the wall time differs.
struct DecomposeTotals {
  std::uint64_t runs = 0;
  std::uint64_t bytes = 0;
};

/// The pre-change send path's decomposition: the frozen loop, which does not
/// track first touches, plus the touched-server list derived from the same
/// closed-form stripe window the closed form walks.
void decompose_reference(const pfs::StripeLayout& layout, const pfs::Segment& seg,
                         pfs::DecomposeScratch& scratch) {
  const std::uint64_t first = seg.offset / layout.unit_bytes;
  const std::uint64_t last = (seg.end() - 1) / layout.unit_bytes;
  const std::uint64_t involved =
      std::min(last - first + 1, std::uint64_t{layout.num_servers});
  for (std::uint64_t i = 0; i < involved; ++i) {
    const auto srv = static_cast<std::uint32_t>((first + i) % layout.num_servers);
    if (scratch.per_server[srv].empty()) scratch.touched.push_back(srv);
  }
  pfs::decompose_segment_reference(layout, seg, scratch.per_server);
}

DecomposeTotals run_decompose(std::uint32_t servers, std::uint64_t iters,
                              bool reference) {
  const pfs::StripeLayout layout{64 * 1024, servers};
  const std::uint64_t span = layout.unit_bytes * servers * 64;  // 64 units/server
  const std::uint64_t extent = span * 16;
  pfs::DecomposeScratch scratch;
  DecomposeTotals totals;
  for (std::uint64_t i = 0; i < iters; ++i) {
    // Unaligned offsets and lengths; edge-straddling by construction.
    const std::uint64_t offset = sim::splitmix64(i * 2 + 1) % extent;
    const std::uint64_t length = 1 + sim::splitmix64(i * 2 + 2) % span;
    const pfs::Segment seg{offset, length};
    scratch.reset(servers);
    if (reference) {
      decompose_reference(layout, seg, scratch);
    } else {
      decompose_segment(layout, seg, scratch);
    }
    for (std::uint32_t s : scratch.touched) {
      totals.runs += scratch.per_server[s].size();
      for (const auto& r : scratch.per_server[s]) totals.bytes += r.length;
    }
  }
  return totals;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t scale = bench::scale_divisor(argc, argv);
  std::printf("Scale-out sweeps (DualPar vs vanilla, data scaled 1/%llu)\n",
              static_cast<unsigned long long>(scale));

  struct SweepPoint {
    std::uint32_t servers;
    std::uint32_t nodes;
    std::uint32_t procs;
    std::uint64_t file_size;
  };

  // Weak scaling: 256 MB (pre-scale) and 16 processes per server.
  std::vector<SweepPoint> weak;
  for (std::uint32_t s : {9u, 32u, 128u, 256u})
    weak.push_back({s, std::max(4u, s / 16), s * 16,
                    std::uint64_t{256 << 20} * s / scale});
  // Strong scaling: fixed 64-server cluster and dataset, processes swept.
  std::vector<SweepPoint> strong;
  for (std::uint32_t p : {64u, 256u, 1024u, 4096u})
    strong.push_back({64, 16, p, (32ull << 30) / scale});

  bench::ExperimentPool pool;
  auto submit_pair = [&pool](const char* sweep, const SweepPoint& pt) {
    std::array<std::size_t, 2> ids{kSkipped, kSkipped};
    std::size_t i = 0;
    for (Variant v : {Variant::kVanilla, Variant::kDualPar}) {
      const std::string label = std::string(sweep) + "/" +
                                bench::variant_name(v) +
                                " servers=" + std::to_string(pt.servers) +
                                " procs=" + std::to_string(pt.procs);
      if (bench::label_selected(label))
        ids[i] = pool.submit(label, [pt, v] {
          return run_ior(pt.servers, pt.nodes, pt.procs, pt.file_size, v);
        });
      ++i;
    }
    return ids;
  };

  std::vector<std::array<std::size_t, 2>> weak_ids, strong_ids;
  for (const auto& pt : weak) weak_ids.push_back(submit_pair("weak", pt));
  for (const auto& pt : strong) strong_ids.push_back(submit_pair("strong", pt));

  auto print_sweep = [&](const char* title, const std::vector<SweepPoint>& pts,
                         const std::vector<std::array<std::size_t, 2>>& ids) {
    bench::Table t(title);
    t.set_headers({"servers", "procs", "vanilla MB/s", "DualPar MB/s",
                   "DP/van", "events(van)", "events(DP)"});
    for (std::size_t i = 0; i < pts.size(); ++i) {
      std::vector<std::string> cells{std::to_string(pts[i].procs)};
      if (ids[i][0] == kSkipped || ids[i][1] == kSkipped) {
        cells.insert(cells.end(), {"-", "-", "-", "-", "-"});
        t.add_text_row(std::to_string(pts[i].servers), cells);
        continue;
      }
      const auto& van = pool.record(ids[i][0]);
      const auto& dp = pool.record(ids[i][1]);
      char buf[64];
      auto fmt = [&buf](const char* f, double v) {
        std::snprintf(buf, sizeof buf, f, v);
        return std::string(buf);
      };
      cells.push_back(fmt("%.1f", van.stats.value));
      cells.push_back(fmt("%.1f", dp.stats.value));
      cells.push_back(fmt("%.2f", dp.stats.value / van.stats.value));
      cells.push_back(std::to_string(van.stats.events));
      cells.push_back(std::to_string(dp.stats.events));
      t.add_text_row(std::to_string(pts[i].servers), cells);
    }
    t.print();
  };

  print_sweep("Weak scaling: 256 MB and 16 procs per server, IOR read", weak,
              weak_ids);
  print_sweep("Strong scaling: 64 servers, 32 GB dataset, IOR read", strong,
              strong_ids);

  // Decomposition-heavy weak scaling: closed form vs the frozen reference
  // loop, per-server share constant. Timed inline (pure CPU, no simulator);
  // totals must match exactly — the bench doubles as a differential check.
  bench::PerfLog log;
  bench::Table dt("Striping decomposition: closed form vs reference loop");
  dt.set_headers({"servers", "segments", "runs", "bytes", "match"});
  for (std::uint32_t s : {9u, 64u, 256u}) {
    const std::uint64_t iters = std::max<std::uint64_t>(2000, 500000 / s);
    const std::string closed_label =
        "decompose/closed servers=" + std::to_string(s);
    const std::string ref_label = "decompose/ref servers=" + std::to_string(s);
    if (!bench::label_selected(closed_label) ||
        !bench::label_selected(ref_label)) {
      dt.add_text_row(std::to_string(s), {"-", "-", "-", "-"});
      continue;
    }
    // Median-of-DPAR_BENCH_REPEAT walls: the decompose timings feed the
    // closed-vs-ref perf gate, so they get the noise-resistant clock.
    double closed_wall = 0, ref_wall = 0;
    const DecomposeTotals closed = bench::timed_median(
        closed_wall, [&] { return run_decompose(s, iters, /*reference=*/false); });
    log.add(closed_label, static_cast<double>(closed.runs), closed.runs,
            closed_wall);
    const DecomposeTotals ref = bench::timed_median(
        ref_wall, [&] { return run_decompose(s, iters, /*reference=*/true); });
    log.add(ref_label, static_cast<double>(ref.runs), ref.runs, ref_wall);
    const bool match = closed.runs == ref.runs && closed.bytes == ref.bytes;
    dt.add_text_row(std::to_string(s),
                    {std::to_string(iters), std::to_string(closed.runs),
                     std::to_string(closed.bytes), match ? "yes" : "NO"});
    if (!match) {
      std::fprintf(stderr, "decomposition mismatch at %u servers\n", s);
      return 1;
    }
  }
  dt.add_note("closed/ref wall times and speedups are in the perf report");
  dt.print();

  // Merge everything into one perf section: pool records, the inline
  // decomposition timings, and the process peak RSS.
  const std::vector<bench::ExperimentRecord>& records = pool.wait_all();
  std::vector<metrics::PerfEntry> entries;
  for (const auto& r : records)
    entries.push_back(metrics::PerfEntry{r.label, r.stats.value, r.stats.events,
                                         r.wall_s});
  log.append_to(entries);
  entries.push_back(metrics::PerfEntry{
      "peak_rss_mb", static_cast<double>(bench::peak_rss_bytes()) / 1e6, 0, 0});
  bench::write_perf_json("bench_scaleout", entries, pool.suite_wall_s(),
                         pool.jobs());
  return 0;
}
