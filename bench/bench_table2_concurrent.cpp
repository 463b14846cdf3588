// Table II + Figure 6 — two concurrent mpi-io-test instances (16 KB
// requests, each with its own 2 GB file), read and write, under vanilla
// MPI-IO, collective I/O and DualPar; plus the blktrace service-order
// samples on data server 1 (Fig 6a vanilla, Fig 6b DualPar).
//
// Paper reference (aggregate MB/s): read 106/168/284-ish, write 54/67/127;
// DualPar reduces the average seek distance "by up to ten times".
#include <cstdio>

#include "harness.hpp"
#include "wl/workloads.hpp"

using namespace dpar;
using bench::Variant;

namespace {

bench::PerfLog g_perf;

struct Result {
  double mbs = 0;
  double mean_seek = 0;
  std::vector<disk::TraceEvent> trace;
};

Result run_pair(bool is_write, Variant v, std::uint64_t scale, bool keep_trace) {
  harness::TestbedConfig tc = bench::paper_config();
  tc.keep_traces = keep_trace;
  harness::Testbed tb(tc);
  std::vector<mpi::Job*> jobs;
  for (int i = 0; i < 2; ++i) {
    wl::MpiIoTestConfig cfg;
    cfg.file_size = (2ull << 30) / scale;
    cfg.file = tb.create_file("file" + std::to_string(i), cfg.file_size);
    cfg.request_size = 16 * 1024;
    cfg.is_write = is_write;
    cfg.collective = (v == Variant::kCollective);
    jobs.push_back(&tb.add_job("mpi-io-test" + std::to_string(i), 64,
                               bench::driver_for(tb, v),
                               [cfg](std::uint32_t) { return wl::make_mpi_io_test(cfg); },
                               bench::policy_for(v)));
  }
  auto tm = g_perf.start(std::string(is_write ? "write " : "read ") +
                         bench::variant_name(v));
  const std::uint64_t events = tb.run();
  Result r;
  r.mbs = tb.system_throughput_mbs();
  g_perf.finish(tm, r.mbs, events);
  r.mean_seek = tb.server(1).trace().mean_seek_distance();
  if (keep_trace) {
    const sim::Time mid = jobs[0]->completion_time() / 2;
    r.trace = tb.server(1).trace().window(mid, mid + sim::secs(1));
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t scale = bench::scale_divisor(argc, argv);
  std::printf("Table II / Figure 6 reproduction (2 concurrent mpi-io-test, 64 "
              "procs each, scale 1/%llu)\n",
              static_cast<unsigned long long>(scale));

  bench::Table t("Table II: aggregate I/O throughput (MB/s), 2 concurrent mpi-io-test");
  t.set_headers({"direction", "vanilla", "collective", "DualPar", "DP/vanilla"});
  Result vr, dr;
  for (bool is_write : {false, true}) {
    const Result a = run_pair(is_write, Variant::kVanilla, scale, !is_write);
    const Result b = run_pair(is_write, Variant::kCollective, scale, false);
    const Result c = run_pair(is_write, Variant::kDualPar, scale, !is_write);
    if (!is_write) {
      vr = a;
      dr = c;
    }
    t.add_row(is_write ? "write" : "read", {a.mbs, b.mbs, c.mbs, c.mbs / a.mbs}, 1);
  }
  t.add_note("paper Table II: read 106/168/284, write 54/67/127 (OCR of the "
             "vanilla read cell is ambiguous)");
  t.print();

  bench::print_trace_sample("Fig 6(a): vanilla MPI-IO service order, server 1",
                            vr.trace);
  bench::print_trace_sample("Fig 6(b): DualPar service order, server 1", dr.trace);
  std::printf("\nmean seek distance on server 1 (sectors): vanilla=%.0f "
              "DualPar=%.0f (%.1fx reduction; paper: up to 10x)\n",
              vr.mean_seek, dr.mean_seek, vr.mean_seek / dr.mean_seek);
  g_perf.write("bench_table2_concurrent");
  return 0;
}
