// DualPar MPI-IO driver — the paper's contribution (§IV), Strategy 3 of §II.
//
// In normal mode it behaves like vanilla MPI-IO (plus cache consistency).
// In data-driven mode:
//  * reads that hit the global cache complete with a memcached get;
//  * a read miss suspends the process (PEC) and forks a ghost pre-execution
//    that records the process's future reads up to its cache quota;
//  * writes are absorbed into the global cache; a process whose dirty volume
//    exceeds its quota is held;
//  * once every process of the job is parked (suspended, held, at a barrier,
//    or finished) and all ghosts have paused — or the fill deadline expires —
//    CRM runs one data-driven cycle: flush dirty data (sorted, merged, holes
//    read first), then issue the union of predicted reads as one sorted,
//    merged, hole-filled batch in ascending offset order; prefetched data
//    lands in the global cache and the processes resume.
// Mis-prefetch is measured when the next cycle begins and reported to EMC.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cache/global_cache.hpp"
#include "dualpar/emc.hpp"
#include "dualpar/ghost.hpp"
#include "dualpar/params.hpp"
#include "fault/status.hpp"
#include "mpiio/vanilla.hpp"
#include "sim/fanin.hpp"

namespace dpar::dualpar {

struct DriverStats {
  std::uint64_t cycles = 0;
  std::uint64_t prefetch_bytes = 0;
  std::uint64_t hole_read_bytes = 0;
  std::uint64_t writeback_bytes = 0;
  std::uint64_t cache_hit_bytes = 0;
  std::uint64_t miss_direct_bytes = 0;  ///< mis-predicted reads served directly
  std::uint64_t ghost_forks = 0;
  std::uint64_t deadline_expiries = 0;
  // ---- Fault handling ----
  std::uint64_t io_errors = 0;          ///< failed transfers (any path)
  std::uint64_t aborted_batches = 0;    ///< CRM batches that came back failed
  std::uint64_t writeback_retained = 0; ///< dirty flushes kept for retry
};

class DualParDriver : public mpiio::VanillaDriver {
 public:
  DualParDriver(mpiio::IoEnv env, cache::GlobalCache& cache, Emc& emc, Params params);

  void io(mpi::Process& proc, const mpi::IoCall& call,
          sim::UniqueFunction done) override;
  void on_barrier_enter(mpi::Process& proc) override;
  void on_process_end(mpi::Process& proc) override;

  std::string name() const override { return "dualpar"; }
  const DriverStats& stats() const { return stats_; }

 private:
  struct Pending {
    mpi::Process* proc;
    mpi::IoCall call;
    sim::UniqueFunction done;
    bool write_hold = false;  ///< held on write quota rather than a read miss
  };

  struct JobState {
    bool cycle_active = false;
    std::vector<Pending> pending;
    std::map<std::uint32_t, std::unique_ptr<GhostRunner>> ghosts;
    sim::EventId deadline{};
    std::set<pfs::FileId> files_written;
    std::map<std::uint32_t, std::uint64_t> dirty_bytes;  // per process
    // Previous round, for mis-prefetch accounting.
    std::vector<cache::ChunkKey> prev_chunks;
    std::uint64_t prev_prefetch_bytes = 0;
    std::uint64_t crm_context = 0;
    bool final_flush_done = false;
  };

  void on_raw_status(fault::Status st) override;
  /// Outcome of a CRM batch or delegated transfer: ledger + EMC feedback.
  void note_batch_status(fault::Status st);

  JobState& state_for(mpi::Job& job);
  void read_path(mpi::Process& proc, const mpi::IoCall& call, sim::UniqueFunction done);
  void write_path(mpi::Process& proc, const mpi::IoCall& call, sim::UniqueFunction done);
  void serve_from_cache(mpi::Process& proc, const mpi::IoCall& call,
                        sim::UniqueFunction done);
  void arm_deadline(mpi::Job& job, mpi::Process& proc);
  void maybe_start_cycle(mpi::Job& job);
  void start_cycle(mpi::Job& job);
  /// Issue `segments` of `file` as one CRM batch (see driver.cpp);
  /// `done` receives the worst per-home outcome.
  void issue_batch(pfs::FileId file, const std::vector<pfs::Segment>& segments,
                   bool is_write, std::uint64_t context,
                   const std::map<std::uint64_t, net::NodeId>* intended_homes,
                   sim::UniqueFn<void(fault::Status)> done);
  void run_writeback(mpi::Job& job, sim::UniqueFunction next);
  void run_prefetch(mpi::Job& job, sim::UniqueFunction next);
  void resume_all(mpi::Job& job);
  void final_flush(mpi::Job& job);

  cache::GlobalCache& cache_;
  Emc& emc_;
  Params params_;
  // Dense job-id index: state_for runs on every I/O call, and the tree walk
  // of the std::map this replaces showed up at cluster scale. unique_ptr
  // slots keep JobState addresses stable across table growth (references
  // are held across re-entrant engine callbacks).
  std::vector<std::unique_ptr<JobState>> jobs_;
  DriverStats stats_;
  /// Cache-transfer and cycle-phase fan-ins.
  sim::FanInPool<sim::UniqueFunction> fans_;
  /// Per-home fan-ins of CRM batches.
  fault::StatusFanIns<sim::UniqueFn<void(fault::Status)>> batch_fans_;
};

}  // namespace dpar::dualpar
