// Vanilla MPI-IO: every process issues its own synchronous requests directly
// to the parallel file system, in program order (Strategy 1 of §II).
#pragma once

#include <cstddef>
#include <string>

#include "mpi/job.hpp"
#include "mpiio/env.hpp"
#include "sim/slab.hpp"

namespace dpar::mpiio {

class VanillaDriver : public mpi::IoDriver {
 public:
  explicit VanillaDriver(IoEnv env) : env_(env) {}

  void io(mpi::Process& proc, const mpi::IoCall& call,
          sim::UniqueFunction done) override;

  std::string name() const override { return "vanilla-mpiio"; }

 protected:
  /// Same request path as io() but without the ADIO observation hook — for
  /// wrappers (DualPar) that already observed the application call and only
  /// delegate the transfer. Independent strided I/O issues one contiguous
  /// piece per round trip ("a process issues its synchronous read requests
  /// one at a time", §II) — the behaviour DualPar's request aggregation
  /// removes.
  void raw_io(mpi::Process& proc, const mpi::IoCall& call,
              sim::UniqueFunction done);

  /// Outcome of every transfer issued through raw_io. Wrappers override to
  /// feed their mode controller (DualPar -> EMC error EWMA); the base driver
  /// only keeps the fault ledger via note_io_status.
  virtual void on_raw_status(fault::Status st) { (void)st; }

  IoEnv env_;

 private:
  /// State of one call on the request path: a strided call is walked
  /// segment by segment, any other call goes out whole. It points at
  /// the process's call record, which stays valid until the walk invokes
  /// `done` (IoDriver::io), and parks `done` so per-request closures capture
  /// only `{this, slot}`.
  struct PieceWalk {
    mpi::Process* proc = nullptr;
    const mpi::IoCall* call = nullptr;
    std::size_t index = 0;
    sim::UniqueFunction done;
  };

  /// Issue the next contiguous piece of walk `slot`; per-piece callbacks
  /// capture only `{this, slot}`.
  void issue_piece(std::uint32_t slot);
  /// Release walk `slot`, then invoke its `done`.
  void finish_walk(std::uint32_t slot);

  sim::Slab<PieceWalk> walks_;
};

}  // namespace dpar::mpiio
