// Deterministic, seed-driven fault plans.
//
// A FaultPlan describes everything that can go wrong in one simulated run:
// disk media errors and latent bad sectors, data-server crash/restart
// schedules, network message loss/delay and transient partitions, and the
// client-side retry policy that turns those raw faults into end-to-end
// Status values. Probabilistic faults draw from per-layer RNG streams seeded
// from `seed`, so a given (seed, plan) reproduces the same fault sequence
// byte-for-byte on every run and at any DPAR_JOBS. A default-constructed plan
// is inert (enabled() == false): no injector exists, so no layer draws a
// fault or arms a timeout, and the simulation output is byte-identical to a
// run without the fault subsystem.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace dpar::fault {

/// Index value meaning "every data server" in per-server fault entries.
inline constexpr std::uint32_t kAllServers = UINT32_MAX;

/// Sentinel restart time for a crash the server never comes back from (a
/// fail-stop failure). Clients surface Status::kPermanentFailure once their
/// retry budget is exhausted against such a server, and the re-replication
/// manager treats its copies as unrecoverable instead of waiting.
inline constexpr sim::Time kNeverRestarts = INT64_MAX;

struct DiskFaults {
  /// Probability that a dispatched request fails with a media error.
  double media_error_rate = 0.0;
  /// Probability that a dispatched request stalls (drive-internal retries,
  /// thermal recalibration) for `stall_time` on top of its service time.
  double stall_rate = 0.0;
  sim::Time stall_time = sim::msec(40);

  /// A latent bad-sector range: any request overlapping it fails with a
  /// media error, deterministically, on every attempt.
  struct BadRange {
    std::uint32_t server = kAllServers;  ///< owning data server, or all
    std::uint64_t lba = 0;
    std::uint64_t sectors = 0;
  };
  std::vector<BadRange> bad_sectors;
};

struct NetFaults {
  /// Probability that a remote message vanishes in the fabric (after
  /// occupying the sender's TX path). Loopback messages never drop.
  double drop_rate = 0.0;
  /// Probability that a remote message is delayed by `delay_time` extra.
  double delay_rate = 0.0;
  sim::Time delay_time = sim::msec(5);

  /// Transient partition: messages between the two nodes (either direction)
  /// are dropped during [start, end).
  struct Partition {
    std::uint32_t node_a = 0;
    std::uint32_t node_b = 0;
    sim::Time start = 0;
    sim::Time end = 0;
  };
  std::vector<Partition> partitions;
};

struct ServerFaults {
  /// Crash/restart event: the server refuses new requests and loses its
  /// queued work (accepted-but-unreplied requests never answer) during
  /// [at, restart_at). restart_at == kNeverRestarts marks a fail-stop crash:
  /// no restart event is ever scheduled and the server stays down forever.
  struct Crash {
    std::uint32_t server = 0;
    sim::Time at = 0;
    sim::Time restart_at = 0;
  };
  std::vector<Crash> crashes;

  /// Probability that request handling stalls for `stall_time` extra CPU.
  double stall_rate = 0.0;
  sim::Time stall_time = sim::msec(20);
};

/// Client-side per-request timeout + capped exponential backoff. Only armed
/// when fault injection is enabled; without an injector the client schedules
/// no timeout events and sends every request once.
struct RetryPolicy {
  /// Base patience for a request, before the size-dependent term.
  sim::Time timeout_base = sim::msec(100);
  /// The timeout grows with the request's payload: bytes / this bandwidth
  /// floor is added to timeout_base, so multi-megabyte CRM batches are not
  /// declared dead while legitimately streaming.
  double timeout_min_bandwidth = 20e6;  ///< bytes/s
  std::uint32_t max_retries = 6;
  /// Backoff before retry k (1-based): backoff_base * backoff_factor^(k-1),
  /// capped at backoff_max.
  sim::Time backoff_base = sim::msec(50);
  double backoff_factor = 2.0;
  sim::Time backoff_max = sim::secs(2);
};

struct FaultPlan {
  std::uint64_t seed = 0xfa017;
  DiskFaults disk;
  NetFaults net;
  ServerFaults server;
  RetryPolicy retry;

  /// True when the plan can produce any fault at all. A disabled plan builds
  /// no injector: no hooks, no timeout events, byte-identical simulation
  /// output.
  bool enabled() const;

  /// Reject malformed plans loudly (negative rates, probabilities > 1, zero
  /// timeouts, crash windows ending before they start, ...). Permanent
  /// crashes are expressed with restart_at == kNeverRestarts, not with an
  /// inverted window. Throws std::invalid_argument.
  void validate() const;
};

}  // namespace dpar::fault
