// Parallel file system front: file creation/striping metadata plus the
// client-side request paths (list I/O decomposition, per-server messages):
// a fault-free fan-in fast path, and one retriable path (timeouts, retries,
// replica fan-out and failover) for every request that can time out.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/network.hpp"
#include "pfs/layout.hpp"
#include "pfs/server.hpp"
#include "sim/engine.hpp"
#include "sim/fanin.hpp"
#include "sim/func.hpp"
#include "sim/slab.hpp"

namespace dpar::replica {
class RepairManager;
}

namespace dpar::pfs {

struct FileInfo {
  FileId id = 0;
  std::string name;
  std::uint64_t size = 0;
};

/// Metadata + data-server ensemble. One instance per simulated cluster.
class FileSystem {
 public:
  FileSystem(sim::Engine& eng, net::Network& net, net::NodeId metadata_node,
             std::vector<DataServer*> servers, StripeLayout layout);

  /// Create a file of `size` bytes: allocates extents on every data server.
  FileId create(const std::string& name, std::uint64_t size);

  const FileInfo& info(FileId id) const { return files_.at(id); }
  const StripeLayout& layout() const { return layout_; }
  std::uint32_t num_servers() const { return static_cast<std::uint32_t>(servers_.size()); }
  DataServer& server(std::uint32_t i) { return *servers_[i]; }
  net::NodeId metadata_node() const { return metadata_node_; }
  net::Network& network() { return net_; }
  sim::Engine& engine() { return eng_; }

  /// Arm fault injection: clients switch to the retriable request path.
  /// Null (the default) keeps the fan-in fast path.
  void set_fault_injector(fault::FaultInjector* inj) { injector_ = inj; }
  fault::FaultInjector* fault_injector() { return injector_; }

  /// Arm n-way replication: create() allocates per-role replica regions and
  /// clients run the retriable request path with every copy (write fan-out
  /// to every copy, degraded reads with transparent failover). Null, or a
  /// manager whose config has replication_factor == 1, keeps the one-copy
  /// request paths byte-for-byte.
  void set_replicas(replica::RepairManager* r) { replicas_ = r; }
  replica::RepairManager* replicas() { return replicas_; }

 private:
  sim::Engine& eng_;
  net::Network& net_;
  net::NodeId metadata_node_;
  std::vector<DataServer*> servers_;
  StripeLayout layout_;
  std::unordered_map<FileId, FileInfo> files_;
  FileId next_file_id_ = 1;
  fault::FaultInjector* injector_ = nullptr;
  replica::RepairManager* replicas_ = nullptr;
};

/// Completion of one client I/O call: the bytes the call covered plus the
/// worst per-server outcome (kOk always, unless fault injection is armed).
using IoDoneFn = sim::UniqueFn<void(std::uint64_t, fault::Status)>;

/// Client-side PFS access from one compute node.
class Client {
 public:
  Client(FileSystem& fs, net::NodeId node) : fs_(fs), node_(node) {}

  /// Metadata round trip (open/stat).
  void open(FileId file, sim::UniqueFunction done);

  /// List I/O: read or write `segments` of `file`. Segments are decomposed
  /// into per-server runs (order-preserving, contiguity-coalescing) and one
  /// request message goes to each involved server. `done(bytes, status)`
  /// fires when every server has replied — or, under fault injection or
  /// replication, when every shard has replied, failed definitively, failed
  /// over to another copy, or exhausted the retry budget (per-request
  /// timeout, capped exponential backoff).
  void io(FileId file, std::span<const Segment> segments, bool is_write,
          std::uint64_t context, IoDoneFn done);

  net::NodeId node() const { return node_; }
  std::uint64_t calls() const { return calls_; }

 private:
  /// One fault-free request message, from io() until the server accepts it.
  /// Its run vector keeps its capacity: io() swaps it with the decomposition
  /// scratch and the server swaps it with its own pooled record.
  struct Send {
    ServerIoRequest req;
    DataServer* srv = nullptr;
    std::uint64_t reply_msg = 0;
    std::uint32_t fan = 0;  ///< the call's fan-in in fans_
  };
  /// What a fault-free call's replies fold into.
  struct Reply {
    std::uint64_t bytes = 0;
    fault::Status status = fault::Status::kOk;
  };

  /// Request message `slot` reached its server.
  void deliver_(std::uint32_t slot);
  /// A reply of fan-in `fan` arrived back at this node.
  void replied_(std::uint32_t fan, fault::Status st);

  FileSystem& fs_;
  net::NodeId node_;
  std::uint64_t calls_ = 0;
  /// Per-client decomposition scratch: the per-server outer vector is sized
  /// once and the send path walks only the servers a call actually touches —
  /// at 256+ servers the old per-call allocation and full-width scans
  /// dominated small requests.
  DecomposeScratch scratch_;
  sim::Slab<Send> sends_;
  sim::FanInPool<IoDoneFn, Reply> fans_;
};

}  // namespace dpar::pfs
