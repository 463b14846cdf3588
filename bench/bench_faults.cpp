// Fault sweep — DualPar vs vanilla under injected faults.
//
// Two experiments, both fully deterministic for a given (seed, plan):
//  1. Throughput vs fault severity: sweep combined network-loss / disk
//     media-error rates and compare vanilla and DualPar system throughput.
//     DualPar's prefetching issues more requests, so the interesting question
//     is whether its advantage survives a lossy fabric and flaky disks.
//  2. Crash recovery: one data server crashes mid-run and restarts after a
//     fixed outage; the recovery cost is the completion-time increase over
//     the clean run. DualPar must fall back to independent execution during
//     the outage and re-engage after the restart.
#include <cstdio>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "harness.hpp"
#include "wl/workloads.hpp"

using namespace dpar;

namespace {

struct FaultLevel {
  const char* name;
  double drop_rate;
  double media_error_rate;
  double stall_rate;
};

constexpr FaultLevel kLevels[] = {
    {"none", 0.0, 0.0, 0.0},
    {"light", 0.005, 0.001, 0.01},
    {"moderate", 0.02, 0.005, 0.05},
    {"heavy", 0.05, 0.02, 0.10},
};

struct RunResult {
  double throughput_mbs = 0;
  double completion_s = 0;
  std::uint64_t retries = 0;
  std::uint64_t failures = 0;
};

bench::ExperimentStats run_one(bench::Variant v, const fault::FaultPlan& plan,
                               std::uint64_t scale) {
  harness::TestbedConfig cfg = bench::paper_config();
  cfg.keep_traces = false;
  cfg.fault = plan;
  harness::Testbed tb(cfg);
  wl::DemoConfig dc;
  dc.file_size = (2ull << 30) / scale;
  dc.file = tb.create_file("fault.dat", dc.file_size);
  dc.segment_size = 64 * 1024;
  mpi::Job& job = tb.add_job("fault", 16, bench::driver_for(tb, v),
                             [dc](std::uint32_t) { return wl::make_demo(dc); },
                             bench::policy_for(v));
  bench::ExperimentStats st;
  st.events = tb.run();
  st.value = tb.job_throughput_mbs(job);
  double retries = 0, failures = 0;
  if (const auto* inj = tb.fault_injector()) {
    const fault::Counters c = inj->counters();
    retries = static_cast<double>(c.client_retries);
    failures = static_cast<double>(c.client_failures);
  }
  st.aux = {sim::to_seconds(job.completion_time() - job.start_time()), retries,
            failures};
  return st;
}

fault::FaultPlan plan_for(const FaultLevel& lv) {
  fault::FaultPlan plan;
  plan.net.drop_rate = lv.drop_rate;
  plan.disk.media_error_rate = lv.media_error_rate;
  plan.disk.stall_rate = lv.stall_rate;
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t scale = bench::scale_divisor(argc, argv);
  std::printf("Fault sweep (DualPar vs vanilla under injected faults, "
              "scale 1/%llu)\n", static_cast<unsigned long long>(scale));
  // Plan banner: seed and replication factor are pure config, identical at
  // every DPAR_JOBS value.
  std::printf("# plan: seed=0x%llx rf=%u\n",
              static_cast<unsigned long long>(fault::FaultPlan{}.seed),
              bench::paper_config().replica.replication_factor);

  bench::ExperimentPool pool;

  // --- Experiment 1: throughput vs fault severity --------------------------
  std::vector<std::size_t> vanilla_idx, dualpar_idx;
  for (const FaultLevel& lv : kLevels) {
    vanilla_idx.push_back(pool.submit(std::string("vanilla/") + lv.name,
                                      [lv, scale] {
                                        return run_one(bench::Variant::kVanilla,
                                                       plan_for(lv), scale);
                                      }));
    dualpar_idx.push_back(pool.submit(std::string("dualpar/") + lv.name,
                                      [lv, scale] {
                                        return run_one(bench::Variant::kDualPar,
                                                       plan_for(lv), scale);
                                      }));
  }

  // --- Experiment 2: crash + restart recovery ------------------------------
  // The outage window is fixed in simulated time, placed inside the run for
  // any scale the suite is run at.
  auto crash_plan = [] {
    fault::FaultPlan plan;
    plan.server.crashes.push_back({/*server=*/4, sim::msec(30), sim::msec(180)});
    return plan;
  };
  const std::size_t v_clean = pool.submit("vanilla/clean", [scale] {
    return run_one(bench::Variant::kVanilla, {}, scale);
  });
  const std::size_t v_crash = pool.submit("vanilla/crash", [scale, crash_plan] {
    return run_one(bench::Variant::kVanilla, crash_plan(), scale);
  });
  const std::size_t d_clean = pool.submit("dualpar/clean", [scale] {
    return run_one(bench::Variant::kDualPar, {}, scale);
  });
  const std::size_t d_crash = pool.submit("dualpar/crash", [scale, crash_plan] {
    return run_one(bench::Variant::kDualPar, crash_plan(), scale);
  });
  pool.wait_all();

  bench::Table t("Throughput (MB/s) vs injected fault severity");
  t.set_headers({"fault level", "vanilla", "DualPar", "speedup",
                 "retries (v/d)"});
  for (std::size_t i = 0; i < std::size(kLevels); ++i) {
    const auto& rv = pool.record(vanilla_idx[i]);
    const auto& rd = pool.record(dualpar_idx[i]);
    char speedup[32], retries[48];
    std::snprintf(speedup, sizeof speedup, "%.2fx",
                  rd.stats.value / rv.stats.value);
    std::snprintf(retries, sizeof retries, "%.0f/%.0f", rv.stats.aux[1],
                  rd.stats.aux[1]);
    t.add_text_row(kLevels[i].name,
                   {std::to_string(rv.stats.value).substr(0, 6),
                    std::to_string(rd.stats.value).substr(0, 6), speedup,
                    retries});
  }
  t.add_note("drop/media/stall rates per level: light .005/.001/.01, "
             "moderate .02/.005/.05, heavy .05/.02/.10");
  t.print();

  bench::Table rec("Crash recovery (server 4 down 30-180 ms)");
  rec.set_headers({"variant", "clean (s)", "crashed (s)", "recovery cost (s)"});
  for (auto [name, ci, xi] :
       {std::tuple{"vanilla", v_clean, v_crash},
        std::tuple{"DualPar", d_clean, d_crash}}) {
    const double clean_s = pool.record(ci).stats.aux[0];
    const double crash_s = pool.record(xi).stats.aux[0];
    char a[32], b[32], c[32];
    std::snprintf(a, sizeof a, "%.3f", clean_s);
    std::snprintf(b, sizeof b, "%.3f", crash_s);
    std::snprintf(c, sizeof c, "%.3f", crash_s - clean_s);
    rec.add_text_row(name, {a, b, c});
  }
  rec.add_note("recovery cost = completion-time increase over the clean run; "
               "DualPar falls back to independent execution during the outage");
  rec.print();

  bench::write_perf_json("bench_faults", pool);
  return 0;
}
