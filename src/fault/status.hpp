// Failure semantics of the I/O stack.
//
// Every completion callback below the MPI-IO layer carries a Status: the disk
// reports media errors, the data server reports crash-lost work, and the PFS
// client adds timeouts for requests whose replies never arrive (dropped
// messages, crashed servers). kOk is the only value ever seen when fault
// injection is disabled, and the enum is ordered by severity so fan-in paths
// can combine branch outcomes with a max.
#pragma once

#include <cstdint>

#include "sim/fanin.hpp"

namespace dpar::fault {

enum class Status : std::uint8_t {
  kOk = 0,
  kMediaError = 1,  ///< disk-level unrecoverable sector error
  kTimeout = 2,     ///< no reply within the retry budget
  kServerDown = 3,  ///< request refused or lost by a crashed data server
  /// Retries exhausted against a server whose crash never restarts (a plan
  /// entry with restart_at == kNeverRestarts): the target is gone, not slow.
  /// Callers — and the re-replication manager — treat this as terminal and
  /// stop waiting for a recovery that cannot come.
  kPermanentFailure = 4,
};

constexpr const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kMediaError: return "media-error";
    case Status::kTimeout: return "timeout";
    case Status::kServerDown: return "server-down";
    case Status::kPermanentFailure: return "permanent-failure";
  }
  return "?";
}

constexpr bool ok(Status s) { return s == Status::kOk; }

/// Worst of two outcomes (severity order of the enum values).
constexpr Status combine(Status a, Status b) { return a < b ? b : a; }

/// Fan-ins over N branches that each complete with a Status; the
/// continuation receives the worst branch outcome. Slab-owned like every
/// sim::FanInPool: the owner frees whatever is still open when it dies.
template <class Fn>
using StatusFanIns = sim::FanInPool<Fn, Status>;

/// One branch of fan-in `id` finished with `st`; the last one calls
/// `done(worst)` (an empty continuation is skipped).
template <class Fn>
void complete_status(StatusFanIns<Fn>& fans, std::uint32_t id, Status st) {
  Status& worst = fans.acc(id);
  worst = combine(worst, st);
  fans.complete(id, [](Fn& done, Status w) {
    if (done) done(w);
  });
}

}  // namespace dpar::fault
