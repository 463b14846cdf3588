// PVFS2-style data server: owns a block device, an extent table mapping
// (file, server-local offset) to LBNs, and a request-handling service thread.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "disk/device.hpp"
#include "fault/status.hpp"
#include "net/network.hpp"
#include "pfs/layout.hpp"
#include "pfs/server_cache.hpp"
#include "sim/func.hpp"
#include "sim/resource.hpp"
#include "sim/slab.hpp"

namespace dpar::fault {
class FaultInjector;
}

namespace dpar::pfs {

/// Server-side completion of one list-I/O request; carries the worst outcome
/// across the request's runs.
using ReplyFn = sim::UniqueFn<void(fault::Status)>;

/// A list-I/O request as received by a data server: runs are in the file's
/// server-local address space, already sorted by the client.
struct ServerIoRequest {
  FileId file = 0;
  bool is_write = false;
  std::uint64_t context = 0;  ///< I/O context for the disk scheduler
  std::vector<ServerRun> runs;
  ReplyFn done;  ///< invoked at the server when disk I/O completes

  std::uint64_t total_bytes() const {
    std::uint64_t sum = 0;
    for (const auto& r : runs) sum += r.length;
    return sum;
  }
};

struct ServerParams {
  sim::Time request_base_cost = sim::usec(30);   ///< per-message handling CPU
  sim::Time per_run_cost = sim::usec(3);         ///< per list-I/O run CPU
  /// PVFS2 data servers issue all disk I/O from one user-space server
  /// process, so the kernel disk scheduler sees a single I/O context and can
  /// only reorder what is simultaneously queued (§II: "the disk scheduler
  /// sees a limited number of outstanding requests"). Set false to tag disk
  /// requests with the originating MPI process instead (kernel-level I/O
  /// path; used by the ablation bench).
  bool single_disk_context = true;
  /// Server page cache with read-ahead; capacity 0 (the default) keeps it
  /// off, matching the paper's cache-flushed runs.
  ServerCacheParams page_cache;
};

class DataServer {
 public:
  DataServer(sim::Engine& eng, net::NodeId node, std::unique_ptr<disk::BlockDevice> dev,
             ServerParams params = {});

  /// Reserve an on-disk extent of `bytes` for `file`. The allocator is a
  /// bump allocator with an inter-file gap, so files created in sequence
  /// occupy disjoint disk regions — seeks between two programs' files are
  /// then long, as on a real aged file system.
  void allocate(FileId file, std::uint64_t bytes);

  /// Handle a request that has already been delivered to this node. The
  /// request is swapped into a pooled record: `req` is left holding that
  /// record's old (cleared-on-reuse) run storage, which a caller that reuses
  /// its request keeps instead of reallocating.
  void handle(ServerIoRequest&& req);

  // ---- Fault injection ----
  /// Arm fault injection for this server and its block device.
  void set_fault_injector(fault::FaultInjector* inj);
  /// Crash: refuse new requests and lose all accepted-but-unreplied work
  /// (their replies are squashed; clients find out by timing out).
  void crash();
  /// Restart after a crash with an empty queue.
  void restart();
  bool is_down() const { return down_; }
  /// Internal plumbing: deliver a finished request's reply, or squash it when
  /// the server crashed (epoch changed) since the request was accepted.
  void deliver_reply(ReplyFn done, fault::Status st, std::uint64_t epoch);

  net::NodeId node() const { return node_; }
  disk::BlockDevice& device() { return *dev_; }
  ServerCache& page_cache() { return cache_; }
  /// The blktrace of the underlying device (first member for RAID).
  disk::BlkTrace& trace() { return dev_->trace(); }
  /// Bytes served to clients (from disk or the page cache).
  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  /// Bytes actually read from the disk (includes read-ahead).
  std::uint64_t disk_bytes_read() const { return disk_bytes_read_; }
  std::uint64_t requests_handled() const { return requests_; }

 private:
  struct Extent {
    std::uint64_t base_lba;
    std::uint64_t sectors;
  };

  /// One accepted request from handle() to its reply: the request plus the
  /// fan-in count over its runs.
  struct IoCtx {
    ServerIoRequest req;
    std::size_t outstanding = 0;
    /// Worst outcome across the request's runs.
    fault::Status status = fault::Status::kOk;
    /// The crash epoch the request was accepted in (fault injection only):
    /// the reply is squashed if the server crashed while the disk work was in
    /// flight.
    std::uint64_t epoch = 0;
  };

  /// The service thread picked up request `slot`: fan it out to the cache
  /// and the disk.
  void serve_(std::uint32_t slot);
  /// One run of request `slot` finished (cache hit or disk completion); the
  /// last one sends the reply and frees the record.
  void complete_run_(std::uint32_t slot, fault::Status st = fault::Status::kOk);

  sim::Engine& eng_;
  net::NodeId node_;
  std::unique_ptr<disk::BlockDevice> dev_;
  ServerParams params_;
  ServerCache cache_;
  sim::FifoResource service_;
  sim::Slab<IoCtx> ctxs_;
  fault::FaultInjector* injector_ = nullptr;
  bool down_ = false;
  /// Bumped on every crash; requests remember the epoch they were accepted in
  /// and replies from a dead epoch are squashed (queue loss without touching
  /// the disk scheduler's state).
  std::uint64_t epoch_ = 0;
  std::unordered_map<FileId, Extent> extents_;
  /// Free space allocate() leaves between consecutive files' extents.
  static constexpr std::uint64_t kInterFileGapBytes = 1ull << 20;
  std::uint64_t next_free_sector_ = 2048;  ///< leave a small metadata region
  std::uint64_t next_req_id_ = 1;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t disk_bytes_read_ = 0;
  std::uint64_t requests_ = 0;
};

}  // namespace dpar::pfs
