// dpar_bench — end-to-end and per-layer benchmark of the DualPar simulator.
//
//   dpar_bench --workload NAME --seed N --seconds S --trace 0|1 --golden FILE
//   dpar_bench --smoke --golden FILE
//
// One process runs one workload: a fixed set of batch jobs ("cell") on the
// §V testbed, repeated while another repetition fits in S seconds (at least
// twice), on the serial engine in one thread. The benchmark times only the
// calls it makes itself: building the Testbed, create_file and add_job are
// set-up; Testbed::run is the run.
//
// --trace 0 reports the end-to-end metrics: run and set-up seconds, rescaled
// to a reference host speed (see probe_s), and the peak RSS of one cell.
// --trace 1 alternates untraced and traced repetitions; the traced ones
// sample the thread's PC (profiler.hpp) and charge the CPU time to src/
// modules, next to each layer's own counters.
//
// Every cell is checked: all jobs finish within an event cap, each job
// moves exactly its program's bytes, a replicated run after one restarting
// crash loses no chunk, and at seed 0 every simulated output equals the
// golden file. Seed 0 keeps the repo's default network jitter and fault
// seeds; any other seed replaces both.
//
// Output: `# ...` context lines, one `name value unit` line per metric, and
// a final JSON line {"correct", "attempted", "failed", "metrics"}.
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "profiler.hpp"
#include "wl/workloads.hpp"

using namespace dpar;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Host-speed probe ----
//
// On a shared host the same cell's wall time drifts by 20-130% over minutes
// (other tenants), far beyond any bound worth gating on. A fixed dependent
// chain of integer multiplies, timed right before and after each repetition,
// measures the core's current speed, and timings are rescaled to the speed
// at which the probe takes kProbeRefS. The probe uses no simulator code, so
// a change under src/ cannot move it.
//
// Contention slows cache-missing code more than the probe, so each workload
// carries the exponent with which its time follows the probe's
// (Workload::contention_exponent).

/// Probe duration on the reference host (x86-64 at 2.1 GHz, GCC 12 -O3).
/// It only scales the reported seconds; comparisons on one host cancel it.
constexpr double kProbeRefS = 0.135;

/// Factor that rescales a time measured while the probe took `probe` seconds.
double speed_factor(double probe, double exponent) {
  return std::pow(kProbeRefS / probe, exponent);
}

volatile std::uint64_t g_probe_iters = 30'000'000;
volatile std::uint64_t g_probe_sink = 0;

double probe_s() {
  const std::uint64_t n = g_probe_iters;
  const Clock::time_point t0 = Clock::now();
  std::uint64_t x = 1;
  for (std::uint64_t i = 0; i < n; ++i) {  // splitmix64, fed back into itself
    std::uint64_t z = x + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    x = (z ^ (z >> 31)) ^ (x >> 3);
  }
  g_probe_sink = x;
  return seconds_since(t0);
}

// ---- Workloads ----

/// A job of a cell and the bytes its program must move.
struct JobCheck {
  mpi::Job* job;
  std::uint64_t expected_bytes;
};

struct Workload {
  const char* name;
  /// Data divisor of the --smoke run (1/64 unless the cell would degenerate).
  std::uint64_t smoke_scale;
  /// Per-cell event cap at full size, ~4x the seed-0 count; scaled runs
  /// divide it. A cell that reaches it has livelocked or blown up.
  std::uint64_t event_cap;
  /// How steeply the cell's run time follows the probe's on a contended
  /// host: time ~ probe^exponent. Fitted over five periods of load on the
  /// reference host, in steps of 0.5; the cells with ~100-180 MB of
  /// randomly walked heap follow it about quadratically.
  double contention_exponent;
  harness::TestbedConfig (*config)(std::uint64_t seed);
  std::vector<JobCheck> (*populate)(harness::Testbed& tb, std::uint64_t scale);
};

harness::TestbedConfig seeded(harness::TestbedConfig cfg, std::uint64_t seed) {
  if (seed != 0) {
    cfg.net.seed = seed;
    cfg.fault.seed = seed;
  }
  return cfg;
}

harness::TestbedConfig btio_config(std::uint64_t seed) {
  return seeded(bench::paper_config(), seed);
}

std::uint64_t btio_bytes(const wl::BtioConfig& c, std::uint32_t procs) {
  const std::uint64_t rows = c.total_bytes / c.write_steps / c.row_bytes * c.write_steps;
  const std::uint64_t cell = std::max<std::uint64_t>(8, c.row_bytes / procs);
  return rows * cell * procs * (c.read_back ? 2 : 1);
}

/// Fig 4's 256-process cell: three concurrent BTIO instances.
std::vector<JobCheck> three_btio(harness::Testbed& tb, bench::Variant v,
                                 std::uint64_t per_instance) {
  constexpr std::uint32_t kProcs = 256;
  std::vector<JobCheck> jobs;
  for (std::uint32_t i = 0; i < 3; ++i) {
    wl::BtioConfig cfg;
    cfg.total_bytes = per_instance;
    cfg.write_steps = 10;
    cfg.read_back = true;
    cfg.collective = (v == bench::Variant::kCollective);
    const std::string name = "btio" + std::to_string(i);
    cfg.file = tb.create_file(name, cfg.total_bytes * 2);
    mpi::Job& job = tb.add_job(name, kProcs, bench::driver_for(tb, v),
                               [cfg](std::uint32_t) { return wl::make_btio(cfg); },
                               bench::policy_for(v));
    jobs.push_back({&job, btio_bytes(cfg, kProcs)});
  }
  return jobs;
}

std::vector<JobCheck> btio_vanilla(harness::Testbed& tb, std::uint64_t scale) {
  return three_btio(tb, bench::Variant::kVanilla, (6800ull << 20) / 16 / 16 / scale);
}

std::vector<JobCheck> btio_dualpar(harness::Testbed& tb, std::uint64_t scale) {
  return three_btio(tb, bench::Variant::kDualPar, (6800ull << 20) / 16 / 16 / scale);
}

std::vector<JobCheck> btio_collective(harness::Testbed& tb, std::uint64_t scale) {
  return three_btio(tb, bench::Variant::kCollective, (6800ull << 20) / 2 / 16 / scale);
}

harness::TestbedConfig replica_config(std::uint64_t seed) {
  harness::TestbedConfig cfg = bench::paper_config();
  cfg.keep_traces = false;
  cfg.replica.replication_factor = 3;
  cfg.replica.placement = replica::Placement::kRotational;
  cfg.replica.fanout = replica::WriteFanout::kStar;
  cfg.fault.server.crashes.push_back({/*server=*/4, sim::msec(30), sim::msec(480)});
  cfg.fault.net.drop_rate = 0.005;
  cfg.fault.disk.media_error_rate = 0.001;
  cfg.fault.disk.stall_rate = 0.01;
  return seeded(cfg, seed);
}

std::vector<JobCheck> replica_crash(harness::Testbed& tb, std::uint64_t scale) {
  mpi::IoDriver& drv = tb.vanilla();
  const dualpar::Policy pol = bench::policy_for(bench::Variant::kVanilla);
  wl::BtioConfig bc;
  bc.total_bytes = (4ull << 30) / 16 / scale;
  bc.row_bytes = 1 << 20;
  bc.write_steps = 5;
  bc.read_back = true;
  bc.file = tb.create_file("btio", bc.total_bytes * 2);
  mpi::Job& writer = tb.add_job("btio", 64, drv,
                                [bc](std::uint32_t) { return wl::make_btio(bc); }, pol);
  wl::DemoConfig dc;
  dc.file_size = (2ull << 30) / 16 / scale;
  dc.segment_size = 16 * 1024;
  dc.file = tb.create_file("demo", dc.file_size);
  mpi::Job& reader = tb.add_job("demo", 64, drv,
                                [dc](std::uint32_t) { return wl::make_demo(dc); }, pol);
  return {{&writer, btio_bytes(bc, 64)},
          {&reader, dc.file_size / dc.segment_size * dc.segment_size}};
}

// Why each workload exists (README.md has the long form):
//  btio_vanilla    tiny interleaved requests load engine, NIC, PFS and CFQ;
//  btio_dualpar    same programs, EMC/ghosts/global cache replace the disk load;
//  btio_collective two-phase aggregation dominates, the engine is ~2%;
//  replica_crash   replicated writes, degraded reads, retries and repair.
const Workload kWorkloads[] = {
    {"btio_vanilla", 64, 100'000'000, 2.0, btio_config, btio_vanilla},
    {"btio_dualpar", 64, 50'000'000, 2.0, btio_config, btio_dualpar},
    {"btio_collective", 64, 4'000'000, 1.5, btio_config, btio_collective},
    // 1/64 of 256 MiB leaves BTIO's 1 MiB rows no whole row per step.
    {"replica_crash", 16, 4'000'000, 1.0, replica_config, replica_crash},
};

// ---- One cell ----

using Outputs = std::vector<std::pair<std::string, std::string>>;

struct CellResult {
  double setup_s = 0;
  double run_s = 0;
  double cpu_s = 0;  ///< thread CPU over set-up + run
  std::uint64_t events = 0;
  std::string error;  ///< empty when the cell passed every check
  Outputs outputs;    ///< simulated results compared against the golden file
  std::map<std::string, double> counters;  ///< per-layer counts
};

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

void collect_counters(harness::Testbed& tb, CellResult& r) {
  auto& c = r.counters;
  c["sim.events"] = static_cast<double>(r.events);
  c["sim.peak_slots"] = static_cast<double>(tb.engine().slab_slots());
  double disk_requests = 0, seek_sum = 0, dispatches = 0, pfs_requests = 0;
  for (std::uint32_t s = 0; s < tb.num_servers(); ++s) {
    pfs::DataServer& srv = tb.server(s);
    pfs_requests += static_cast<double>(srv.requests_handled());
    std::vector<disk::DiskDevice*> disks;
    if (auto* raid = dynamic_cast<disk::Raid0Device*>(&srv.device())) {
      disks = {&raid->member(0), &raid->member(1)};
    } else if (auto* d = dynamic_cast<disk::DiskDevice*>(&srv.device())) {
      disks = {d};
    }
    for (disk::DiskDevice* d : disks) {
      disk_requests += static_cast<double>(d->requests_served());
      const double n = static_cast<double>(d->trace().dispatches());
      seek_sum += d->trace().mean_seek_distance() * n;
      dispatches += n;
    }
  }
  c["disk.requests"] = disk_requests;
  c["disk.mean_seek_sectors"] = dispatches > 0 ? seek_sum / dispatches : 0.0;
  c["pfs.server_requests"] = pfs_requests;
  c["net.messages"] = static_cast<double>(tb.network().messages_sent());
  c["net.bytes"] = static_cast<double>(tb.network().bytes_sent());
  const dualpar::DriverStats& dp = tb.dualpar().stats();
  c["dualpar.cycles"] = static_cast<double>(dp.cycles);
  c["dualpar.ghost_forks"] = static_cast<double>(dp.ghost_forks);
  c["dualpar.prefetch_bytes"] = static_cast<double>(dp.prefetch_bytes);
  c["dualpar.prefetch_hit_ratio"] =
      dp.prefetch_bytes > 0
          ? static_cast<double>(dp.cache_hit_bytes) / static_cast<double>(dp.prefetch_bytes)
          : 0.0;
  c["dualpar.mode_switches"] = static_cast<double>(tb.emc().mode_switches());
  c["mpiio.collective_rounds"] = static_cast<double>(tb.collective().collective_rounds());
  c["mpiio.shuffle_bytes"] = static_cast<double>(tb.collective().shuffle_bytes());
  if (replica::RepairManager* mgr = tb.replica_manager()) {
    const replica::DurabilityReport rep = mgr->report();
    c["replica.repair_ops"] = static_cast<double>(rep.counters.repair_ops_completed);
    c["replica.repair_bytes"] = static_cast<double>(rep.counters.repair_bytes_copied);
    c["replica.degraded_reads"] = static_cast<double>(rep.counters.degraded_reads);
    c["replica.lost_chunks"] = static_cast<double>(rep.lost_chunks);
  }
  if (fault::FaultInjector* inj = tb.fault_injector()) {
    const fault::Counters f = inj->total();
    c["fault.client_timeouts"] = static_cast<double>(f.client_timeouts);
    c["fault.client_retries"] = static_cast<double>(f.client_retries);
  }
}

/// Simulated results of a finished cell, and the invariants any seed must
/// meet (returned as an error message, empty when they hold).
std::string collect_outputs(harness::Testbed& tb, const std::vector<JobCheck>& jobs,
                            Outputs& out) {
  std::string error;
  for (const JobCheck& jc : jobs) {
    const mpi::Job& j = *jc.job;
    out.emplace_back(j.name() + ".bytes", std::to_string(j.total_bytes()));
    out.emplace_back(j.name() + ".mbs", fmt(tb.job_throughput_mbs(j)));
    out.emplace_back(j.name() + ".end_s", fmt(sim::to_seconds(j.completion_time())));
    if (!j.finished()) error = "job " + j.name() + " did not finish";
    if (j.total_bytes() != jc.expected_bytes)
      error = "job " + j.name() + " moved " + std::to_string(j.total_bytes()) +
              " bytes, its program moves " + std::to_string(jc.expected_bytes);
  }
  out.emplace_back("system.mbs", fmt(tb.system_throughput_mbs()));
  if (replica::RepairManager* mgr = tb.replica_manager()) {
    const replica::DurabilityReport rep = mgr->report();
    const auto u = [](std::uint64_t v) { return std::to_string(v); };
    out.emplace_back("replica.degraded_reads", u(rep.counters.degraded_reads));
    out.emplace_back("replica.failover_shards", u(rep.counters.failover_shards));
    out.emplace_back("replica.repair_ops", u(rep.counters.repair_ops_completed));
    out.emplace_back("replica.repair_bytes", u(rep.counters.repair_bytes_copied));
    out.emplace_back("replica.repair_ops_failed", u(rep.counters.repair_ops_failed));
    out.emplace_back("replica.copies_unrepairable", u(rep.counters.chunks_unrepairable));
    out.emplace_back("replica.invalid_copies_now", u(rep.invalid_copies_now));
    out.emplace_back("replica.under_replicated_now", u(rep.under_replicated_now));
    out.emplace_back("replica.lost_chunks", u(rep.lost_chunks));
    out.emplace_back("replica.under_replicated_chunk_s",
                     fmt(rep.under_replicated_chunk_seconds));
    // Replicated workloads here crash one server that restarts, so no chunk
    // may be lost, and every chunk still short of copies must be one the
    // repair daemon abandoned after repair_attempt_cap failed attempts (the
    // model's rule), not a deficit it silently stopped working on.
    if (rep.lost_chunks != 0 || rep.under_replicated_now > rep.counters.chunks_unrepairable)
      error = "replication: " + u(rep.lost_chunks) + " lost, " +
              u(rep.under_replicated_now) + " under-replicated chunks at the end, " +
              u(rep.counters.chunks_unrepairable) + " abandoned copies";
  }
  return error;
}

/// Build the cell's Testbed and jobs; the seconds this took go to `setup_s`.
template <class Fn>
void with_cell(const Workload& w, std::uint64_t seed, std::uint64_t scale,
               double& setup_s, Fn&& body) {
  const Clock::time_point t0 = Clock::now();
  harness::Testbed tb(w.config(seed));
  const std::vector<JobCheck> jobs = w.populate(tb, scale);
  setup_s = seconds_since(t0);
  body(tb, jobs);
}

CellResult run_cell(const Workload& w, std::uint64_t seed, std::uint64_t scale,
                    dpar_bench::Sampler* sampler) {
  CellResult r;
  const double cpu0 = thread_cpu_s();
  if (sampler != nullptr) sampler->start();
  try {
    with_cell(w, seed, scale, r.setup_s,
              [&](harness::Testbed& tb, const std::vector<JobCheck>& jobs) {
                const std::uint64_t cap = w.event_cap / scale + 1'000'000;
                const Clock::time_point t0 = Clock::now();
                try {
                  r.events = tb.run(cap);
                } catch (const std::exception& e) {
                  r.error = e.what();
                }
                r.run_s = seconds_since(t0);
                if (sampler != nullptr) sampler->stop();
                r.cpu_s = thread_cpu_s() - cpu0;
                // Testbed::run reports a drained queue whenever jobs are
                // unfinished; a non-empty queue means the cap stopped it.
                if (!tb.engine().empty()) {
                  r.error = "event cap of " + std::to_string(cap) +
                            " reached at simulated t=" +
                            fmt(sim::to_seconds(tb.engine().now())) + " s";
                  r.events = tb.engine().events_fired();
                }
                if (!r.error.empty()) return;
                r.error = collect_outputs(tb, jobs, r.outputs);
                collect_counters(tb, r);
              });
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  if (sampler != nullptr) sampler->stop();  // set-up may have thrown
  return r;
}

// ---- Golden outputs ----

/// Golden lines are `<workload> <scale> <key> <value>`; returns the entries
/// for (workload, scale).
std::map<std::string, std::string> load_golden(const std::string& path,
                                               const std::string& workload,
                                               std::uint64_t scale) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot read golden file " + path);
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(f, line)) {
    std::istringstream ls(line);
    std::string w, key, value;
    std::uint64_t s = 0;
    if (line.empty() || line[0] == '#') continue;
    if (!(ls >> w >> s >> key >> value))
      throw std::runtime_error("malformed golden line: " + line);
    if (w == workload && s == scale) out[key] = value;
  }
  return out;
}

std::string check_golden(const Outputs& outputs, const std::map<std::string, std::string>& golden) {
  if (golden.empty()) return "no golden outputs for this workload and scale";
  std::map<std::string, std::string> got(outputs.begin(), outputs.end());
  for (const auto& [key, value] : golden) {
    const auto it = got.find(key);
    if (it == got.end()) return "output " + key + " missing";
    if (it->second != value) return "output " + key + " = " + it->second + ", golden " + value;
  }
  if (got.size() != golden.size()) return "outputs not in the golden file";
  return "";
}

// ---- Reporting ----

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_env() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  std::printf("# env compiler=\"%s\" build=%s nproc=%ld loadavg=%.2f,%.2f,%.2f\n",
              __VERSION__, DPAR_BENCH_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN), load[0],
              load[1], load[2]);
}

void print_cell(const char* kind, std::size_t i, const CellResult& r) {
  std::printf("# cell %s %zu setup_s=%.6f run_s=%.4f cpu_s=%.4f events=%llu %s%s\n", kind, i,
              r.setup_s, r.run_s, r.cpu_s, static_cast<unsigned long long>(r.events),
              r.error.empty() ? "ok" : "FAILED: ", r.error.c_str());
}

void print_result(const std::vector<Metric>& metrics, std::size_t attempted, std::size_t failed) {
  for (const Metric& m : metrics) std::printf("%s %.10g %s\n", m.name.c_str(), m.value, m.unit);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  std::printf("}}\n");
}

/// Per-layer metrics in BENCHMARK.json's order. A `.self_s` metric comes
/// from the sampled profile; the rest are counters.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"sim.self_s", "s"}, {"sim.events", "count"}, {"sim.events_per_s", "1/s"},
    {"sim.peak_slots", "count"},
    {"disk.self_s", "s"}, {"disk.requests", "count"}, {"disk.mean_seek_sectors", "sectors"},
    {"pfs.self_s", "s"}, {"pfs.server_requests", "count"},
    {"net.self_s", "s"}, {"net.messages", "count"}, {"net.bytes", "B"},
    {"cache.self_s", "s"},
    {"dualpar.self_s", "s"}, {"dualpar.cycles", "count"}, {"dualpar.ghost_forks", "count"},
    {"dualpar.prefetch_bytes", "B"}, {"dualpar.prefetch_hit_ratio", "ratio"},
    {"dualpar.mode_switches", "count"},
    {"mpiio.self_s", "s"}, {"mpiio.collective_rounds", "count"},
    {"mpiio.shuffle_bytes", "B"}, {"mpi.self_s", "s"},
    {"replica.self_s", "s"}, {"replica.repair_ops", "count"}, {"replica.repair_bytes", "B"},
    {"replica.degraded_reads", "count"}, {"replica.lost_chunks", "count"},
    {"fault.self_s", "s"}, {"fault.client_timeouts", "count"},
    {"fault.client_retries", "count"},
    {"cluster.self_s", "s"}, {"metrics.self_s", "s"},
    {"libs.self_s", "s"}, {"wl.self_s", "s"}, {"harness.self_s", "s"},
    {"trace.samples", "count"}, {"trace.overhead_frac", "ratio"},
    {"trace.unattributed_frac", "ratio"},
};

/// Fraction of the profile's samples charged to `module`.
double share_of(const dpar_bench::Attribution& prof, const std::string& module) {
  const auto it = prof.per_module.find(module);
  return it == prof.per_module.end() || prof.total == 0
             ? 0.0
             : static_cast<double>(it->second) / static_cast<double>(prof.total);
}

// ---- Modes ----

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 25;
  bool trace = false;
  bool smoke = false;
  std::string golden;
};

/// True while another step of `step_s` seconds fits in `budget_s` since
/// `start`; the first two steps always run.
bool fits(Clock::time_point start, double budget_s, double step_s, std::size_t done) {
  return done < 2 || seconds_since(start) + step_s <= budget_s;
}

/// Run `w` untraced for `seconds`: end-to-end metrics. run_s is the fastest
/// repetition after rescaling each to the reference host speed (the probe
/// before and after it), which filters both the host's slow drift and the
/// bursts of contention that hit single repetitions. setup_s is the fastest
/// set-up, rescaled by the run's median probe.
int run_plain(const Workload& w, const Args& a, const std::map<std::string, std::string>& golden) {
  const Clock::time_point start = Clock::now();
  std::vector<double> probes{probe_s()};
  // Set-up takes ~0.1 ms and its samples fall in two modes (a process may
  // sit in the slower one throughout), so it gets many samples and the
  // fastest one is reported.
  constexpr int kSetupOnly = 100;
  std::vector<double> setups;
  for (int i = 0; i < kSetupOnly; ++i) {
    double s = 0;
    with_cell(w, a.seed, 1, s, [](harness::Testbed&, const std::vector<JobCheck>&) {});
    setups.push_back(s);
  }
  std::vector<double> walls, rescaled;
  std::size_t failed = 0;
  double peak_rss_mb = 0;
  double step_s = 0;
  while (fits(start, a.seconds, step_s, walls.size())) {
    const Clock::time_point t0 = Clock::now();
    CellResult r = run_cell(w, a.seed, 1, nullptr);
    probes.push_back(probe_s());
    step_s = seconds_since(t0);
    if (r.error.empty() && a.seed == 0) r.error = check_golden(r.outputs, golden);
    if (walls.empty()) {
      // Later repetitions reuse a fragmented heap and would inflate the
      // peak; the first one is what a single run of the cell costs.
      peak_rss_mb = static_cast<double>(bench::peak_rss_bytes()) / 1e6;
      for (const auto& [key, value] : r.outputs)
        std::printf("out %s 1 %s %s\n", w.name, key.c_str(), value.c_str());
    }
    print_cell("plain", walls.size(), r);
    failed += r.error.empty() ? 0 : 1;
    const double probe = 0.5 * (probes[probes.size() - 2] + probes.back());
    walls.push_back(r.run_s);
    rescaled.push_back(r.run_s * speed_factor(probe, w.contention_exponent));
    setups.push_back(r.setup_s);
  }
  const double probe = median(probes);
  const auto min_of = [](const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); };
  std::printf("# samples run_s=%zu setup_s=%zu probe_s=%zu\n", walls.size(), setups.size(),
              probes.size());
  std::printf("# wall run_s median=%.4f min=%.4f setup_s median=%.7f min=%.7f; "
              "probe_s median=%.4f (reference %.3f)\n",
              median(walls), min_of(walls), median(setups), min_of(setups), probe, kProbeRefS);
  std::printf("fail_frac %.6g ratio\n", static_cast<double>(failed) / static_cast<double>(walls.size()));
  print_result({{"run_s", min_of(rescaled), "s"},
                {"setup_s", min_of(setups) * speed_factor(probe, 1.0), "s"},
                {"peak_rss_mb", peak_rss_mb, "MB"}},
               walls.size(), failed);
  return 0;
}

/// Alternate untraced and traced repetitions for `seconds`: per-layer
/// metrics. Profile shares are charged to the traced CPU time; overhead is
/// the median traced/untraced CPU ratio over the pairs.
int run_traced(const Workload& w, const Args& a, const std::map<std::string, std::string>& golden) {
  dpar_bench::Sampler sampler(1 << 20);
  std::vector<CellResult> plain, traced;
  std::size_t failed = 0;
  const Clock::time_point start = Clock::now();
  double pair_s = 0;
  while (fits(start, a.seconds, pair_s, traced.size())) {
    const Clock::time_point t0 = Clock::now();
    for (dpar_bench::Sampler* s : {static_cast<dpar_bench::Sampler*>(nullptr), &sampler}) {
      CellResult r = run_cell(w, a.seed, 1, s);
      if (r.error.empty() && a.seed == 0) r.error = check_golden(r.outputs, golden);
      print_cell(s == nullptr ? "plain" : "traced", plain.size(), r);
      failed += r.error.empty() ? 0 : 1;
      (s == nullptr ? plain : traced).push_back(std::move(r));
    }
    pair_s = seconds_since(t0);
  }

  std::vector<double> runs, ratios;
  double traced_cpu = 0;
  for (std::size_t i = 0; i < plain.size(); ++i) {
    runs.push_back(plain[i].run_s);
    ratios.push_back(traced[i].cpu_s / plain[i].cpu_s - 1.0);
    traced_cpu += traced[i].cpu_s;
  }
  const double cpu_per_cell = traced_cpu / static_cast<double>(traced.size());
  const dpar_bench::Attribution prof = dpar_bench::attribute(sampler.pcs(), 12);
  for (const auto& [n, sym] : prof.top_symbols)
    std::printf("# top %5.1f%%  %.200s\n", 100.0 * static_cast<double>(n) / static_cast<double>(prof.total), sym.c_str());
  std::map<std::string, double> values = traced.back().counters;
  for (const auto& [module, n] : prof.per_module)
    if (!module.empty()) values[module + ".self_s"] = share_of(prof, module) * cpu_per_cell;
  values["sim.events_per_s"] = values["sim.events"] / median(runs);
  values["trace.samples"] = static_cast<double>(prof.total);
  values["trace.overhead_frac"] = median(ratios);
  values["trace.unattributed_frac"] = share_of(prof, "");
  if (sampler.dropped() > 0) std::printf("# warning: %llu samples dropped\n",
                                         static_cast<unsigned long long>(sampler.dropped()));

  std::vector<Metric> metrics;
  for (const LayerMetric& m : kLayerMetrics) metrics.push_back({m.name, values[m.name], m.unit});
  print_result(metrics, plain.size() + traced.size(), failed);
  return 0;
}

/// Every workload at its smoke scale, one repetition each, checked against
/// the golden file; then one traced cell whose profile must place >= 95% of
/// its samples. Exit status 0 when all pass.
int run_smoke(const Args& a) {
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    CellResult r = run_cell(w, 0, w.smoke_scale, nullptr);
    if (r.error.empty()) r.error = check_golden(r.outputs, load_golden(a.golden, w.name, w.smoke_scale));
    for (const auto& [key, value] : r.outputs)
      std::printf("out %s %llu %s %s\n", w.name, static_cast<unsigned long long>(w.smoke_scale),
                  key.c_str(), value.c_str());
    print_cell(w.name, 0, r);
    ok = ok && r.error.empty();
  }
  // The traced cell repeats until it has enough samples to bound the share.
  dpar_bench::Sampler sampler(1 << 16);
  const Workload& w = kWorkloads[1];  // btio_dualpar keeps the most modules busy
  for (int i = 0; i < 100 && sampler.pcs().size() < 200; ++i) {
    const CellResult r = run_cell(w, 0, w.smoke_scale, &sampler);
    ok = ok && r.error.empty();
  }
  const dpar_bench::Attribution prof = dpar_bench::attribute(sampler.pcs(), 5);
  const double unattributed = prof.total == 0 ? 1.0 : share_of(prof, "");
  std::printf("# smoke trace %s: %llu samples, unattributed %.4f\n", w.name,
              static_cast<unsigned long long>(prof.total), unattributed);
  ok = ok && unattributed <= 0.05;
  std::printf("smoke %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "dpar_bench: %s\n"
               "usage: dpar_bench --workload NAME --seed N --seconds S --trace 0|1 --golden FILE\n"
               "       dpar_bench --smoke --golden FILE\n"
               "workloads:",
               why.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      std::size_t end = 0;
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--golden") {
        a.golden = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v, &end);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v, &end);
        if (!(a.seconds > 0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else {
        usage("unknown flag " + flag);
      }
      if (end != 0 && end != v.size()) usage("bad value for " + flag + ": " + v);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
  }
  if (a.golden.empty()) usage("--golden is required");
  if (!a.smoke && a.workload.empty()) usage("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "dpar_bench: refusing to time a build without NDEBUG\n");
  return 2;
#endif
  const Args a = parse(argc, argv);
  print_env();
  try {
    if (a.smoke) return run_smoke(a);
    const Workload* w = nullptr;
    for (const Workload& cand : kWorkloads)
      if (a.workload == cand.name) w = &cand;
    if (w == nullptr) usage("unknown workload " + a.workload);
    std::printf("# workload %s seed %llu seconds %g trace %d\n", w->name,
                static_cast<unsigned long long>(a.seed), a.seconds, a.trace ? 1 : 0);
    const std::map<std::string, std::string> golden = load_golden(a.golden, w->name, 1);
    return a.trace ? run_traced(*w, a, golden) : run_plain(*w, a, golden);
  } catch (const std::exception& e) {
    // Cell failures are caught per cell; this is the harness itself (golden
    // file, symbol table, timer) failing.
    std::fprintf(stderr, "dpar_bench: %s\n", e.what());
    return 2;
  }
}
