// Shared plumbing for MPI-IO driver implementations: per-node PFS clients,
// and the ADIO-style request observer that feeds the EMC daemon.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fault/injector.hpp"
#include "net/network.hpp"
#include "pfs/file_system.hpp"
#include "sim/time.hpp"

namespace dpar::mpiio {

/// One PFS client per compute node, created on demand.
class ClientPool {
 public:
  explicit ClientPool(pfs::FileSystem& fs) : fs_(fs) {}

  pfs::Client& for_node(net::NodeId node) {
    if (node >= clients_.size()) clients_.resize(node + 1);
    std::unique_ptr<pfs::Client>& c = clients_[node];
    if (!c) c = std::make_unique<pfs::Client>(fs_, node);
    return *c;
  }

 private:
  pfs::FileSystem& fs_;
  /// Indexed by node id (ids are dense): one lookup per I/O piece, so a
  /// hash probe here showed up in the small-request profile.
  std::vector<std::unique_ptr<pfs::Client>> clients_;
};

/// Observation hook the instrumented ADIO functions call on every
/// application I/O request; EMC derives ReqDist from it (§IV-B).
class RequestObserver {
 public:
  virtual ~RequestObserver() = default;
  virtual void observe(std::uint32_t job_id, pfs::FileId file,
                       const std::vector<pfs::Segment>& segments, sim::Time now) = 0;
};

/// Everything a driver needs to reach the storage system.
struct IoEnv {
  pfs::FileSystem& fs;
  ClientPool& clients;
  net::Network& net;
  RequestObserver* observer = nullptr;  ///< optional
};

/// Ledger hook for a finished transfer: MPI-IO reports the error to the
/// application (which carries on, as the paper's benchmarks do) and the run's
/// fault counters record it. No-op without fault injection.
inline void note_io_status(IoEnv& env, fault::Status st) {
  if (fault::ok(st)) return;
  if (auto* inj = env.fs.fault_injector()) ++inj->counters().driver_io_errors;
}

}  // namespace dpar::mpiio
