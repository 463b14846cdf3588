// Workload program abstraction.
//
// A Program is a deterministic op stream: compute bursts, I/O calls and
// barriers. Programs are cloneable so DualPar's pre-execution can fork a
// ghost copy of the exact current state and run it ahead (§IV-C). The
// execution context tells a program whether it is running as a ghost; data-
// dependent programs (whose next offsets are computed from file contents)
// cannot see real data in a ghost run and mis-predict — precisely the
// mis-prefetch mechanism evaluated in Table III.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "pfs/layout.hpp"
#include "sim/time.hpp"

namespace dpar::mpi {

/// One MPI-IO call: a list of file segments (derived datatypes produce many
/// per call), read or write, optionally a collective call.
struct IoCall {
  pfs::FileId file = 0;
  std::vector<pfs::Segment> segments;
  bool is_write = false;
  bool collective = false;

  std::uint64_t total_bytes() const {
    std::uint64_t sum = 0;
    for (const auto& s : segments) sum += s.length;
    return sum;
  }
};

struct OpCompute {
  sim::Time duration = 0;
};
struct OpIo {
  IoCall call;
};
struct OpBarrier {};
/// Synchronizing collective reduction: all ranks contribute `bytes` and
/// leave together after ~2 log2(P) exchange rounds.
struct OpAllreduce {
  std::uint64_t bytes = 0;
};
/// Blocking (rendezvous) point-to-point send to `dest`.
struct OpSend {
  std::uint32_t dest = 0;
  std::uint64_t bytes = 0;
  int tag = 0;
};
/// Blocking receive from `src` (no wildcard sources: workloads are
/// deterministic).
struct OpRecv {
  std::uint32_t src = 0;
  int tag = 0;
};
struct OpEnd {};

using Op =
    std::variant<OpCompute, OpIo, OpBarrier, OpAllreduce, OpSend, OpRecv, OpEnd>;

/// Execution context handed to Program::next.
struct ProgramContext {
  std::uint32_t rank = 0;
  std::uint32_t nprocs = 1;
  bool ghost = false;  ///< running as a pre-execution ghost
  /// Synthesized content of the most recent read (set only in normal runs);
  /// data-dependent programs derive their next offsets from it.
  std::optional<std::uint64_t> last_read_value;
};

class Program {
 public:
  virtual ~Program() = default;
  /// Produce the next op. Must eventually return OpEnd.
  virtual Op next(ProgramContext& ctx) = 0;
  /// Deep copy of the current execution state (for ghost forking).
  virtual std::unique_ptr<Program> clone() const = 0;
};

}  // namespace dpar::mpi
