// Figure 1 — the §II motivating experiment with the synthetic `demo`
// program: 8 processes read a 1 GB file; each call fetches 16 segments at
// offsets (k*N + rank).
//
//  (a) execution time vs I/O ratio (segment 4 KB) under
//      Strategy 1 (computation-driven / vanilla),
//      Strategy 2 (pre-execution prefetching, compute stripped, requests
//                  issued immediately),
//      Strategy 3 (data-driven batch = DualPar forced on);
//  (b) execution time vs segment size at a ~90% I/O ratio;
//  (c,d) blktrace samples of the service order on data server 1 under
//        Strategies 2 and 3.
//
// Paper shape: S2 wins at low I/O ratio (hides I/O); S3 wins above ~70%
// (36% faster near 100%); smaller segments widen S3's advantage; S2's trace
// shows back-and-forth head movement, S3's moves in one direction.
#include <cstdio>
#include <string>

#include "harness.hpp"
#include "wl/workloads.hpp"

using namespace dpar;
using bench::Variant;

namespace {

bench::PerfLog g_perf;

struct RunResult {
  double seconds = 0;
  std::uint64_t reversals = 0;
  std::vector<disk::TraceEvent> trace;
};

RunResult run_demo(Variant v, std::uint64_t file_size, std::uint64_t segment,
                   sim::Time compute_per_call, bool keep_trace = false) {
  harness::TestbedConfig tc = bench::paper_config();
  tc.keep_traces = keep_trace;
  harness::Testbed tb(tc);
  wl::DemoConfig cfg;
  cfg.file = tb.create_file("demo.dat", file_size);
  cfg.file_size = file_size;
  cfg.segment_size = segment;
  cfg.compute_per_call = compute_per_call;
  mpi::Job& job = tb.add_job("demo", 8, bench::driver_for(tb, v),
                             [cfg](std::uint32_t) { return wl::make_demo(cfg); },
                             bench::policy_for(v));
  auto tm = g_perf.start(std::string(bench::variant_name(v)) + " seg=" +
                         std::to_string(segment >> 10) + "KB");
  const std::uint64_t events = tb.run();
  RunResult r;
  r.seconds = sim::to_seconds(job.completion_time() - job.start_time());
  g_perf.finish(tm, r.seconds, events);
  if (keep_trace) {
    r.reversals = bench::trace_reversals(tb.server(1).trace().events());
    // Sample a window in the middle of the run, as the paper does (5.2-5.4s).
    const sim::Time mid = job.completion_time() / 2;
    r.trace = tb.server(1).trace().window(mid, mid + sim::msec(200));
  }
  return r;
}

/// Calibrate per-call compute so the *vanilla* run has the target I/O ratio
/// (the paper defines the ratio "in the vanilla system").
sim::Time compute_for_ratio(double ratio, std::uint64_t file_size, std::uint64_t segment) {
  const RunResult pure = run_demo(Variant::kVanilla, file_size, segment, 0);
  const std::uint64_t calls_per_proc = file_size / (segment * 16 * 8);
  const double io_per_call = pure.seconds / static_cast<double>(calls_per_proc);
  if (ratio >= 0.999) return 0;
  return sim::from_seconds(io_per_call * (1.0 - ratio) / ratio);
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t scale = bench::scale_divisor(argc, argv);
  const std::uint64_t file_size = (1ull << 30) / scale;
  std::printf("Figure 1 reproduction (demo, 8 procs, %llu MB file, scale 1/%llu)\n",
              static_cast<unsigned long long>(file_size >> 20),
              static_cast<unsigned long long>(scale));

  {
    bench::Table t("Fig 1(a): execution time (s) vs I/O ratio, 4 KB segments");
    t.set_headers({"I/O ratio", "Strategy1", "Strategy2", "Strategy3", "S3/S1", "S3/S2"});
    for (double ratio : {0.19, 0.31, 0.43, 0.72, 0.86, 1.00}) {
      const sim::Time compute = compute_for_ratio(ratio, file_size, 4096);
      const double s1 = run_demo(Variant::kVanilla, file_size, 4096, compute).seconds;
      const double s2 = run_demo(Variant::kPreexec, file_size, 4096, compute).seconds;
      const double s3 = run_demo(Variant::kDualPar, file_size, 4096, compute).seconds;
      char label[32];
      std::snprintf(label, sizeof label, "%3.0f%%", ratio * 100);
      t.add_row(label, {s1, s2, s3, s3 / s1, s3 / s2}, 2);
    }
    t.add_note("paper: S2 best at low ratios; crossover ~70%; S3 ~36% faster than "
               "the others near 100%");
    t.print();
  }

  {
    bench::Table t("Fig 1(b): execution time (s) vs segment size, ~90% I/O ratio");
    t.set_headers({"segment", "Strategy1", "Strategy2", "Strategy3", "S3/S2"});
    for (std::uint64_t seg : {4u, 8u, 16u, 32u, 64u, 128u}) {
      const std::uint64_t bytes = seg * 1024;
      const sim::Time compute = compute_for_ratio(0.90, file_size, bytes);
      const double s1 = run_demo(Variant::kVanilla, file_size, bytes, compute).seconds;
      const double s2 = run_demo(Variant::kPreexec, file_size, bytes, compute).seconds;
      const double s3 = run_demo(Variant::kDualPar, file_size, bytes, compute).seconds;
      char label[32];
      std::snprintf(label, sizeof label, "%lluKB", static_cast<unsigned long long>(seg));
      t.add_row(label, {s1, s2, s3, s3 / s2}, 2);
    }
    t.add_note("paper: S3's advantage largest at 4 KB (S2 at 64% of S3's "
               "throughput) and fades beyond 32 KB");
    t.print();
  }

  {
    const RunResult s2 = run_demo(Variant::kPreexec, file_size, 4096, 0, true);
    const RunResult s3 = run_demo(Variant::kDualPar, file_size, 4096, 0, true);
    bench::print_trace_sample("Fig 1(c): Strategy 2 service order on server 1",
                              s2.trace);
    bench::print_trace_sample("Fig 1(d): Strategy 3 service order on server 1",
                              s3.trace);
    std::printf("\nfull-run direction reversals on server 1: Strategy2=%llu "
                "Strategy3=%llu (paper: S2 shows back-and-forth movement, S3 "
                "moves in one direction)\n",
                static_cast<unsigned long long>(s2.reversals),
                static_cast<unsigned long long>(s3.reversals));
  }
  g_perf.write("bench_fig1_motivation");
  return 0;
}
