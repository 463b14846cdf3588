// Switched-Ethernet fabric model.
//
// Every node owns a NIC with separate transmit and receive paths, each a
// serially-served FIFO at the link bandwidth (the paper's testbed: switched
// Gigabit Ethernet). A message occupies the sender's TX path, crosses the
// switch with a fixed latency, then occupies the receiver's RX path — so
// incast at a data server or a memcached home node queues naturally.
//
// The TX path is computed in closed form rather than simulated with events:
// messages leave a NIC in submission order, so the transmit-finish time is
// just max(tx_free_at, now) + tx_time — one running register per NIC instead
// of one completion event per message. Only the arrival (switch hop + RX
// FIFO) is an event.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/func.hpp"
#include "sim/resource.hpp"
#include "sim/rng.hpp"
#include "sim/slab.hpp"
#include "sim/stats.hpp"

namespace dpar::fault {
class FaultInjector;
}

namespace dpar::net {

using NodeId = std::uint32_t;

struct NetParams {
  double bandwidth_bytes_per_s = 125e6;  ///< 1 Gb/s
  sim::Time switch_latency = sim::usec(50);
  /// Uniform extra delay in [0, jitter): TCP stack + server thread wakeup
  /// variance. This scrambles the arrival order of a synchronized round of
  /// requests from many processes — the reason the disk scheduler cannot
  /// reconstruct a sequential order from vanilla MPI-IO traffic (§II).
  sim::Time latency_jitter = sim::usec(400);
  std::uint64_t per_message_header = 64;  ///< framing overhead bytes
  std::uint64_t seed = 0x5eed;
};

class Network {
 public:
  Network(sim::Engine& eng, std::uint32_t num_nodes, NetParams params = {});

  /// Deliver `bytes` from `from` to `to`; `delivered` fires at the receiver
  /// once the payload has fully arrived. Loopback messages skip the fabric
  /// and cost only a small local copy.
  void send(NodeId from, NodeId to, std::uint64_t bytes,
            sim::UniqueFunction delivered);

  std::uint32_t num_nodes() const { return static_cast<std::uint32_t>(nics_.size()); }
  const NetParams& params() const { return params_; }

  /// Arm fault injection: remote messages may be dropped (the callback is
  /// destroyed unfired — the sender learns via its own timeout) or delayed.
  /// Loopback delivery is exempt. Null (the default) disables the hook.
  void set_fault_injector(fault::FaultInjector* inj) { injector_ = inj; }

  std::uint64_t messages_sent() const;
  std::uint64_t bytes_sent() const;
  /// TX busy time of one node, for utilization reporting.
  sim::Time tx_busy_time(NodeId n) const { return nics_[n].tx_busy; }

 private:
  struct Nic {
    /// Closed-form TX path: when the transmit FIFO drains. Messages leave in
    /// submission order, so no per-message completion event is needed.
    sim::Time tx_free_at = 0;
    sim::Time tx_busy = 0;
    std::uint64_t messages = 0;  ///< messages sent by this node
    std::uint64_t bytes = 0;     ///< payload bytes sent by this node
    /// Per-sender jitter stream: a sender's latencies depend only on its own
    /// send order, never on how other nodes' sends interleave with it.
    sim::Rng jitter;
    std::unique_ptr<sim::FifoResource> rx;
  };

  /// In-flight remote message between its TX drain and its arrival at the
  /// receiver's RX FIFO. The delivery callback is too big to re-capture in
  /// the arrival closure without spilling past UniqueFn's inline buffer, so
  /// it parks here and the closure captures `{this, slot}`.
  struct Transit {
    sim::FifoResource* rx = nullptr;
    sim::Time rx_time = 0;
    sim::UniqueFunction cb;
  };

  /// Hand the parked message to the receiver's RX FIFO.
  void arrive_(std::uint32_t slot);

  sim::Engine& eng_;
  NetParams params_;
  std::vector<Nic> nics_;
  sim::Slab<Transit> transit_;
  fault::FaultInjector* injector_ = nullptr;
};

}  // namespace dpar::net
