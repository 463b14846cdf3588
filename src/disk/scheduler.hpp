// I/O scheduler interface.
//
// The device asks the scheduler what to do next given the current head
// position; the answer is either a request to dispatch, an instruction to
// idle until a deadline (CFQ anticipation), or "nothing pending".
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "disk/request.hpp"

namespace dpar::disk {

struct Decision {
  enum class Kind { kDispatch, kWaitUntil, kIdle };
  Kind kind = Kind::kIdle;
  Request request;       ///< valid when kind == kDispatch
  sim::Time wait_until = 0;  ///< valid when kind == kWaitUntil

  static Decision dispatch(Request r) {
    Decision d;
    d.kind = Kind::kDispatch;
    d.request = std::move(r);
    return d;
  }
  static Decision wait(sim::Time t) {
    Decision d;
    d.kind = Kind::kWaitUntil;
    d.wait_until = t;
    return d;
  }
  static Decision idle() { return {}; }
};

class IoScheduler {
 public:
  virtual ~IoScheduler() = default;

  virtual void enqueue(Request r, sim::Time now) = 0;

  /// Choose the next action. Called whenever the disk becomes free, a new
  /// request arrives while it is free, or a previously returned wait deadline
  /// expires.
  virtual Decision next(std::uint64_t head_lba, sim::Time now) = 0;

  /// Inform the scheduler that a dispatched request finished (CFQ uses this
  /// to track per-context think times).
  virtual void completed(const Request& r, sim::Time now) { (void)r; (void)now; }

  virtual std::size_t pending() const = 0;
  virtual std::string name() const = 0;
};

/// Factory helpers (definitions in the respective .cpp files).
std::unique_ptr<IoScheduler> make_noop_scheduler();
std::unique_ptr<IoScheduler> make_deadline_scheduler(sim::Time read_deadline = sim::msec(500),
                                                     sim::Time write_deadline = sim::secs(5));
std::unique_ptr<IoScheduler> make_cscan_scheduler();

struct CfqParams {
  sim::Time slice_sync = sim::msec(100);  ///< time slice per context
  /// Anticipation window. Contexts whose mean think time exceeds it are not
  /// worth idling for (mirrors CFQ's ttime heuristic).
  sim::Time slice_idle = sim::msec(8);
};
std::unique_ptr<IoScheduler> make_cfq_scheduler(CfqParams p = {});

/// Named construction for config-driven experiments.
enum class SchedulerKind { kNoop, kDeadline, kCscan, kCfq };
std::unique_ptr<IoScheduler> make_scheduler(SchedulerKind kind);

}  // namespace dpar::disk
