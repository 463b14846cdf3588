// Fault injector: the one place a simulated run decides what goes wrong.
//
// The Testbed creates one injector per run when its FaultPlan is enabled and
// hands a pointer to every layer; a null injector pointer is the contract for
// "fault-free": no layer draws a fault and the PFS client arms no timeouts.
// Probabilistic decisions draw from one RNG stream per (layer, locality) —
// per-server disk and server streams, per-sender-node network streams — all
// derived from the plan seed with splitmix64, so enabling faults in one layer
// (or adding a server or node) never perturbs another stream's draws. The
// whole fault history is a pure function of (seed, plan).
//
// The injector is also the run's fault ledger: every layer bumps Counters.
// Server up/down transitions fan out to registered listeners (EMC
// degradation, cache invalidation) from here.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/plan.hpp"
#include "fault/status.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace dpar::fault {

/// Fault/retry/recovery counters, one block per run, grouped by layer.
struct Counters {
  // disk
  std::uint64_t disk_media_errors = 0;
  std::uint64_t disk_bad_sector_hits = 0;
  std::uint64_t disk_stalls = 0;
  // net
  std::uint64_t net_dropped = 0;
  std::uint64_t net_partition_drops = 0;
  std::uint64_t net_delayed = 0;
  // server
  std::uint64_t server_crashes = 0;
  std::uint64_t server_restarts = 0;
  std::uint64_t server_refused_requests = 0;   ///< arrived while down
  std::uint64_t server_lost_completions = 0;   ///< queued work lost by a crash
  std::uint64_t server_stalls = 0;
  // pfs client
  std::uint64_t client_ops_started = 0;
  std::uint64_t client_ops_finished = 0;
  std::uint64_t client_timeouts = 0;
  std::uint64_t client_retries = 0;
  std::uint64_t client_recoveries = 0;  ///< server requests that succeeded after a retry
  std::uint64_t client_failures = 0;    ///< server requests that exhausted retries
  std::uint64_t client_permanent_failures = 0;  ///< ... against a fail-stop server
  std::uint64_t client_stale_replies = 0;
  // MPI-IO drivers / DualPar degraded mode
  std::uint64_t driver_io_errors = 0;
  std::uint64_t dualpar_aborted_batches = 0;
  std::uint64_t cache_invalidated_bytes = 0;
  std::uint64_t emc_degraded_entries = 0;
  std::uint64_t emc_degraded_exits = 0;

  friend bool operator==(const Counters&, const Counters&) = default;
};

class FaultInjector {
 public:
  /// Validates the plan (std::invalid_argument on a malformed one).
  /// `num_servers` bounds crash entries and sizes the down-state table and
  /// the per-server RNG streams; `num_nodes` sizes the per-sender network
  /// streams (0 falls back to `num_servers`, enough for server-only tests).
  FaultInjector(FaultPlan plan, std::uint32_t num_servers,
                std::uint32_t num_nodes = 0);

  const FaultPlan& plan() const { return plan_; }

  /// The run's fault ledger.
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }
  /// Same ledger as counters(); dpar_bench/dpar_bench.cpp reads it by this
  /// name.
  const Counters& total() const { return counters_; }

  // ---- Disk hooks (DiskDevice dispatch path) ----
  struct DiskVerdict {
    Status status = Status::kOk;
    sim::Time stall = 0;  ///< added to the request's service time
  };
  DiskVerdict disk_verdict(std::uint32_t server, std::uint64_t lba,
                           std::uint32_t sectors);

  // ---- Network hooks (Network::send, remote messages only) ----
  /// False: the message is dropped (its callback must be destroyed unfired).
  /// True: deliver, with `extra_delay` added to the switch hop.
  bool net_deliver(std::uint32_t from, std::uint32_t to, sim::Time now,
                   sim::Time& extra_delay);

  // ---- Data-server hooks ----
  /// Extra service CPU for one request of `server` (0 most of the time).
  sim::Time server_stall(std::uint32_t server);
  /// Called by DataServer::crash()/restart(); fans out to listeners.
  void note_server_state(std::uint32_t server, bool down);
  bool server_down(std::uint32_t server) const {
    return server < down_.size() && down_[server];
  }
  /// Down with no restart still ahead of `now` in the plan: the server is
  /// gone for good (fail-stop crash, restart_at == kNeverRestarts) rather
  /// than mid-window. Clients report kPermanentFailure instead of kTimeout
  /// once retries exhaust, and the repair manager skips it as a copy source.
  bool permanently_down(std::uint32_t server, sim::Time now) const;
  std::uint32_t servers_down() const { return servers_down_; }

  /// Listener for server up/down transitions (EMC degradation, cache
  /// invalidation). Registered once at testbed assembly; called in
  /// registration order.
  using ServerStateListener = std::function<void(std::uint32_t server, bool down)>;
  void add_server_listener(ServerStateListener l) {
    listeners_.push_back(std::move(l));
  }

  // ---- Client retry policy ----
  /// Patience for one server request carrying `bytes` of payload.
  sim::Time request_timeout(std::uint64_t bytes) const;
  /// Backoff before retry `attempt` (1-based), capped.
  sim::Time backoff(std::uint32_t attempt) const;
  std::uint32_t max_retries() const { return plan_.retry.max_retries; }

 private:
  FaultPlan plan_;
  Counters counters_;
  /// Per-server streams.
  std::vector<sim::Rng> disk_rngs_;
  std::vector<sim::Rng> server_rngs_;
  /// Per-sender-node streams.
  std::vector<sim::Rng> net_rngs_;
  /// Server up/down state, flipped by the plan's crash/restart events.
  std::vector<bool> down_;
  std::uint32_t servers_down_ = 0;
  std::vector<ServerStateListener> listeners_;
};

}  // namespace dpar::fault
