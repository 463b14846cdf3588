// Strategy 2 of §II: application-level pre-execution prefetching in the
// style of Chen et al. [5] — the comparison point that motivates DualPar.
//
// A per-process prefetcher clones the program on its first read, strips the
// computation (the I/O-slicing approach of [5]) and issues each predicted
// read request to the data servers *immediately* as it is generated, bounded
// by a prefetch window (the process's cache quota). The goal is overlapping
// I/O with computation, NOT improving the service order — so requests arrive
// at the servers in per-process streams and the disk scheduler sees only a
// shallow, interleaved queue (Fig 1c).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/global_cache.hpp"
#include "cache/rangeset.hpp"
#include "dualpar/params.hpp"
#include "mpiio/vanilla.hpp"
#include "sim/fanin.hpp"

namespace dpar::dualpar {

struct PreexecStats {
  std::uint64_t prefetch_issued_bytes = 0;
  std::uint64_t hits = 0;
  std::uint64_t waits = 0;          ///< normal read waited on an in-flight prefetch
  std::uint64_t direct_misses = 0;  ///< normal read had to fetch itself
  std::uint64_t prefetch_aborts = 0;  ///< prefetch fetch failed; nothing cached
};

class PreexecDriver : public mpiio::VanillaDriver {
 public:
  PreexecDriver(mpiio::IoEnv env, cache::GlobalCache& cache, Params params,
                bool strip_compute = true)
      : VanillaDriver(env), cache_(cache), params_(params), strip_compute_(strip_compute) {}

  void io(mpi::Process& proc, const mpi::IoCall& call,
          sim::UniqueFunction done) override;

  std::string name() const override { return "preexec-prefetch"; }
  const PreexecStats& stats() const { return stats_; }

 private:
  struct PState {
    std::unique_ptr<mpi::Program> prog;  ///< prefetcher's program clone
    mpi::ProgramContext ctx;
    bool ghost_end = false;
    std::uint64_t window = 0;  ///< prefetched-but-unconsumed bytes (incl. in flight)
    std::map<pfs::FileId, cache::RangeSet> inflight;
    /// Pieces generated by pre-execution but not yet issued: prefetch
    /// requests go out one contiguous piece at a time, as the real
    /// pre-execution generates them ("a prefetch request is issued to the
    /// data servers immediately after it is generated", §II) — so servers
    /// see per-process streams, not pre-assembled batches.
    std::deque<mpi::IoCall> piece_queue;
    std::uint32_t inflight_pieces = 0;
    // At most one blocked normal read per process (MPI-IO is synchronous).
    struct Waiting {
      mpi::IoCall call;
      sim::UniqueFunction done;
    };
    std::unique_ptr<Waiting> waiting;
  };

  PState& state_for(mpi::Process& proc, const mpi::IoCall& first_call);
  void pump(mpi::Process& proc, PState& st);
  void issue_prefetch(mpi::Process& proc, PState& st, mpi::IoCall call);
  bool covered_by_cache(const mpi::IoCall& call) const;
  bool covered_by_inflight(PState& st, const mpi::IoCall& call) const;
  void serve_hit(mpi::Process& proc, PState& st, const mpi::IoCall& call,
                 sim::UniqueFunction done);

  cache::GlobalCache& cache_;
  Params params_;
  bool strip_compute_;
  /// Max outstanding prefetch pieces per process (pacing of the generated
  /// request stream).
  std::uint32_t inflight_limit_ = 4;
  std::map<std::uint32_t, PState> procs_;
  PreexecStats stats_;
  /// Fan-ins of cache hits served by several transfers.
  sim::FanInPool<sim::UniqueFunction> fans_;
};

}  // namespace dpar::dualpar
