// EMC — execution-mode control daemon (§IV-B).
//
// Lives on the metadata server. Every slot it gathers:
//  * per-server SeekDist: mean disk-head seek distance of requests dispatched
//    in the last slot (from the blktrace recorders);
//  * per-job ReqDist: mean adjacent distance of the job's requests observed
//    at the compute nodes in the last slot, after sorting per file — the best
//    I/O efficiency a data-driven reordering could achieve. Sorted adjacent
//    distances telescope to (max - min) / (n - 1), so a slot keeps only each
//    (job, file)'s offset extremes and request count, never the requests;
//  * per-job I/O ratio, from the instrumented ADIO timing probes.
// A job enters data-driven mode when aveSeekDist/aveReqDist > T_improvement
// and its I/O ratio exceeds 80%; it reverts when the condition clears, and is
// latched back to normal when its average mis-prefetch ratio exceeds 20%.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "dualpar/params.hpp"
#include "mpi/job.hpp"
#include "mpiio/env.hpp"
#include "pfs/server.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"

namespace dpar::dualpar {

enum class Mode { kNormal, kDataDriven };
enum class Policy { kAdaptive, kForcedNormal, kForcedDataDriven };

class Emc : public mpiio::RequestObserver {
 public:
  Emc(sim::Engine& eng, Params params, std::vector<pfs::DataServer*> servers);

  void register_job(mpi::Job& job, Policy policy);
  Mode mode(std::uint32_t job_id) const;

  /// Mis-prefetch report from a job's CRM at the start of a pre-execution
  /// round; ratios are averaged and can latch the job back to normal mode.
  void report_misprefetch(std::uint32_t job_id, double ratio);
  bool latched_off(std::uint32_t job_id) const;

  // ---- Degraded mode under faults ----
  /// Outcome of one finished transfer (DualPar batch or delegated vanilla
  /// call). Feeds the error EWMA that drives fall-back and re-engagement.
  void report_io_error();
  void report_io_ok();
  /// Fault-injector listener: any data server down forces normal mode for
  /// every job until it restarts.
  void note_server_state(std::uint32_t server, bool down);
  /// True while EMC is forcing vanilla execution because of faults.
  bool degraded() const { return degraded_; }
  double error_ewma() const { return error_ewma_; }
  /// Route degraded entry/exit counts into a run's fault ledger (optional).
  void set_fault_injector(fault::FaultInjector* inj) { injector_ = inj; }

  /// ADIO request observation (client side, feeds ReqDist). Hot path: the
  /// call folds into the job's per-file offset extremes and counts for the
  /// current slot; tick() consumes and resets them.
  void observe(std::uint32_t job_id, pfs::FileId file,
               const std::vector<pfs::Segment>& segments, sim::Time now) override;

  /// Begin periodic evaluation (re-arms itself while any job is live).
  void start();
  /// One evaluation step (also callable directly from tests).
  void tick();

  /// Debug invariant layer: verifies the id -> slot side table agrees with
  /// the flat, id-sorted job vector. Aborts via DPAR_ASSERT on violation.
  /// Called after every register_job when DPAR_CHECK_INVARIANTS is compiled
  /// in, and directly by tests.
  void check_invariants() const;

  // ---- Introspection for experiments ----
  double last_seek_dist_bytes() const { return last_seek_; }
  double last_req_dist_bytes() const { return last_req_; }
  double last_improvement_ratio() const { return last_ratio_; }
  const sim::TimeSeries& seek_series() const { return seek_series_; }
  const sim::TimeSeries& mode_series(std::uint32_t job_id) const;
  std::uint64_t mode_switches() const { return switches_; }

 private:
  /// Offset extremes and count of one (job, file)'s requests in a slot:
  /// everything ReqDist needs.
  struct OffsetSpan {
    std::uint64_t lo = UINT64_MAX;
    std::uint64_t hi = 0;
    std::uint64_t n = 0;
  };
  /// FileId-sorted flat vector (binary-search insert). Spans are reset, not
  /// erased, between slots, so a steady file set never reallocates.
  using FileSpans = std::vector<std::pair<pfs::FileId, OffsetSpan>>;
  static OffsetSpan& span_of(FileSpans& spans, pfs::FileId file);

  struct JobEntry {
    std::uint32_t id = 0;
    mpi::Job* job = nullptr;
    Policy policy = Policy::kAdaptive;
    Mode mode = Mode::kNormal;
    bool latched = false;
    sim::Ewma misprefetch{0.5};
    // I/O-ratio deltas between ticks.
    sim::Time prev_io = 0;
    sim::Time prev_compute = 0;
    double io_ratio = 0.0;
    // Request offsets observed in the current slot.
    FileSpans slot_spans;
    sim::TimeSeries mode_series;
    // Switch damping.
    std::uint32_t agree_slots = 0;
    sim::Time last_switch = 0;
  };

  void update_degraded();
  JobEntry* find_job(std::uint32_t job_id);
  const JobEntry* find_job(std::uint32_t job_id) const;

  sim::Engine& eng_;
  Params params_;
  std::vector<pfs::DataServer*> servers_;
  // Job table: entries kept in ascending job-id order (tick() iterates them,
  // and the iteration order fixes the floating-point accumulation order, so
  // it must match the std::map this replaces) plus a dense id → index+1
  // side table for O(1) lookup on the per-op paths (observe, mode).
  std::vector<JobEntry> entries_;
  std::vector<std::uint32_t> slot_of_;  ///< job id -> entries_ index + 1; 0 = absent
  fault::FaultInjector* injector_ = nullptr;
  std::uint32_t servers_down_ = 0;
  double error_ewma_ = 0.0;
  bool degraded_ = false;
  bool ticking_ = false;
  // Fold state: written only by tick().
  double last_seek_ = 0.0;
  double last_req_ = 0.0;
  double last_ratio_ = 0.0;
  std::uint64_t switches_ = 0;
  sim::TimeSeries seek_series_;
};

}  // namespace dpar::dualpar
