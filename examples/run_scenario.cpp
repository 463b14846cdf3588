// Command-line scenario runner: compose a cluster, a workload and an MPI-IO
// variant without writing code, and optionally export the timelines and the
// server-1 blktrace as CSV.
//
//   $ ./run_scenario --workload ior --driver dualpar --procs 64
//         --servers 9 --mb 256 --csv /tmp/run
//
//   --workload  demo|mpiiotest|hpio|ior|noncontig|s3asim|btio|dependent
//   --trace F   replay a CSV op trace instead (rank,op,file,offset,length,us)
//   --driver    vanilla|collective|dualpar|preexec
//   --policy    forced|adaptive            (DualPar mode policy)
//   --procs N   --servers N   --nodes N    (cluster shape)
//   --mb N                                 (data volume in MB)
//   --quota KB                             (per-process cache quota)
//   --sched     cfq|deadline|cscan|noop
//   --csv PATH  write PATH.throughput.csv / PATH.seek.csv / PATH.trace.csv
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <fstream>
#include <map>
#include <sstream>

#include "harness/testbed.hpp"
#include "metrics/csv.hpp"
#include "wl/trace_replay.hpp"
#include "wl/workloads.hpp"

using namespace dpar;

namespace {

struct Options {
  std::string workload = "mpiiotest";
  std::string trace;
  std::string driver = "dualpar";
  std::string policy = "forced";
  std::string sched = "cfq";
  std::string csv;
  std::uint32_t procs = 64;
  std::uint32_t servers = 9;
  std::uint32_t nodes = 4;
  std::uint64_t mb = 128;
  std::uint64_t quota_kb = 1024;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--workload" && (v = next())) o.workload = v;
    else if (flag == "--trace" && (v = next())) o.trace = v;
    else if (flag == "--driver" && (v = next())) o.driver = v;
    else if (flag == "--policy" && (v = next())) o.policy = v;
    else if (flag == "--sched" && (v = next())) o.sched = v;
    else if (flag == "--csv" && (v = next())) o.csv = v;
    else if (flag == "--procs" && (v = next())) o.procs = std::atoi(v);
    else if (flag == "--servers" && (v = next())) o.servers = std::atoi(v);
    else if (flag == "--nodes" && (v = next())) o.nodes = std::atoi(v);
    else if (flag == "--mb" && (v = next())) o.mb = std::atoll(v);
    else if (flag == "--quota" && (v = next())) o.quota_kb = std::atoll(v);
    else {
      std::fprintf(stderr, "unknown or incomplete option: %s\n", flag.c_str());
      return false;
    }
  }
  return true;
}

disk::SchedulerKind sched_of(const std::string& s) {
  if (s == "noop") return disk::SchedulerKind::kNoop;
  if (s == "deadline") return disk::SchedulerKind::kDeadline;
  if (s == "cscan") return disk::SchedulerKind::kCscan;
  return disk::SchedulerKind::kCfq;
}

mpi::Job::ProgramFactory make_factory(harness::Testbed& tb, const Options& o,
                                      bool collective) {
  const std::uint64_t bytes = o.mb << 20;
  if (!o.trace.empty()) {
    std::ifstream in(o.trace);
    if (!in) throw std::runtime_error("cannot open trace: " + o.trace);
    std::stringstream ss;
    ss << in.rdbuf();
    auto ops = wl::parse_trace_csv(ss.str());
    // Create files large enough for the trace's extents. File ids are
    // assigned sequentially from 1, so traces must number their files
    // 1..K in ascending order.
    std::map<pfs::FileId, std::uint64_t> max_end;
    for (const auto& op : ops)
      if (op.length > 0)
        max_end[op.file] = std::max(max_end[op.file], op.offset + op.length);
    for (const auto& [file, end] : max_end) {
      const pfs::FileId assigned =
          tb.create_file("trace" + std::to_string(file), end + (1 << 20));
      if (assigned != file)
        throw std::runtime_error("trace file ids must be 1..K in ascending order "
                                 "(got id " + std::to_string(file) + ")");
    }
    return [ops](std::uint32_t rank) { return wl::make_trace_replay(ops, rank); };
  }
  if (o.workload == "demo") {
    wl::DemoConfig c;
    c.file_size = bytes;
    c.segment_size = 16 * 1024;
    c.file = tb.create_file("demo", bytes);
    return [c](std::uint32_t) { return wl::make_demo(c); };
  }
  if (o.workload == "hpio") {
    wl::HpioConfig c;
    c.region_size = 32 * 1024;
    c.region_count = bytes / o.procs / c.region_size;
    c.file = tb.create_file("hpio", bytes + (1 << 20));
    return [c](std::uint32_t) { return wl::make_hpio(c); };
  }
  if (o.workload == "ior") {
    wl::IorConfig c;
    c.file_size = bytes;
    c.request_size = 32 * 1024;
    c.collective = collective;
    c.file = tb.create_file("ior", bytes);
    return [c](std::uint32_t) { return wl::make_ior(c); };
  }
  if (o.workload == "noncontig") {
    wl::NoncontigConfig c;
    c.columns = 64;
    c.elmt_count = 128;
    c.rows = bytes / (c.columns * c.elmt_count * 4);
    c.collective = collective;
    c.file = tb.create_file("nc", bytes + (1 << 20));
    return [c](std::uint32_t) { return wl::make_noncontig(c); };
  }
  if (o.workload == "s3asim") {
    wl::S3asimConfig c;
    c.database_size = bytes;
    c.database_file = tb.create_file("db", bytes);
    c.result_file = tb.create_file(
        "res", std::uint64_t{o.procs} * c.queries * c.max_size + (1 << 20));
    return [c](std::uint32_t) { return wl::make_s3asim(c); };
  }
  if (o.workload == "btio") {
    wl::BtioConfig c;
    c.total_bytes = bytes;
    c.collective = collective;
    c.file = tb.create_file("btio", bytes * 2);
    return [c](std::uint32_t) { return wl::make_btio(c); };
  }
  if (o.workload == "dependent") {
    wl::DependentConfig c;
    c.file_size = bytes;
    c.requests = bytes / c.request_size / 4;
    c.file = tb.create_file("dep", bytes);
    return [c](std::uint32_t) { return wl::make_dependent(c); };
  }
  wl::MpiIoTestConfig c;  // default: mpiiotest
  c.file_size = bytes;
  c.request_size = 16 * 1024;
  c.collective = collective;
  c.file = tb.create_file("mit", bytes);
  return [c](std::uint32_t) { return wl::make_mpi_io_test(c); };
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse(argc, argv, o)) return 2;

  harness::TestbedConfig cfg;
  cfg.data_servers = o.servers;
  cfg.compute_nodes = o.nodes;
  cfg.scheduler = sched_of(o.sched);
  cfg.dualpar.cache_quota = o.quota_kb * 1024;
  cfg.keep_traces = !o.csv.empty();  // the .trace.csv export reads the list
  harness::Testbed tb(cfg);

  const bool collective = (o.driver == "collective");
  mpi::IoDriver& drv = o.driver == "vanilla"    ? static_cast<mpi::IoDriver&>(tb.vanilla())
                       : o.driver == "collective" ? static_cast<mpi::IoDriver&>(tb.collective())
                       : o.driver == "preexec"    ? static_cast<mpi::IoDriver&>(tb.preexec())
                                                  : static_cast<mpi::IoDriver&>(tb.dualpar());
  const dualpar::Policy policy =
      o.policy == "adaptive" ? dualpar::Policy::kAdaptive
      : o.driver == "dualpar" ? dualpar::Policy::kForcedDataDriven
                              : dualpar::Policy::kForcedNormal;

  const std::string label = o.trace.empty() ? o.workload : "trace:" + o.trace;
  mpi::Job& job =
      tb.add_job(label, o.procs, drv, make_factory(tb, o, collective), policy);
  const std::uint64_t events = tb.run();

  std::printf("%s / %s / %u procs / %u servers / %llu MB\n", label.c_str(),
              o.driver.c_str(), o.procs, o.servers,
              static_cast<unsigned long long>(o.mb));
  std::printf("  runtime     %8.2f simulated s  (%llu events)\n",
              sim::to_seconds(job.completion_time() - job.start_time()),
              static_cast<unsigned long long>(events));
  std::printf("  throughput  %8.1f MB/s\n", tb.job_throughput_mbs(job));
  std::printf("  I/O ratio   %8.1f %%\n",
              100.0 * static_cast<double>(job.total_io_time()) /
                  static_cast<double>(job.total_io_time() + job.total_compute_time() + 1));
  if (o.driver == "dualpar") {
    const auto& st = tb.dualpar().stats();
    std::printf("  dualpar     %llu cycles, %llu ghost forks, hit %llu MB, "
                "prefetched %llu MB, wrote back %llu MB\n",
                static_cast<unsigned long long>(st.cycles),
                static_cast<unsigned long long>(st.ghost_forks),
                static_cast<unsigned long long>(st.cache_hit_bytes >> 20),
                static_cast<unsigned long long>(st.prefetch_bytes >> 20),
                static_cast<unsigned long long>(st.writeback_bytes >> 20));
  }
  if (!o.csv.empty()) {
    metrics::write_series_csv(o.csv + ".throughput.csv",
                              tb.monitor().throughput_series(), "mbps");
    metrics::write_series_csv(o.csv + ".seek.csv", tb.monitor().seek_series(),
                              "sectors");
    metrics::write_trace_csv(o.csv + ".trace.csv", tb.server(0).trace().events());
    std::printf("  csv         %s.{throughput,seek,trace}.csv\n", o.csv.c_str());
  }
  return 0;
}
