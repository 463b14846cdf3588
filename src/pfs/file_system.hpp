// Parallel file system front: file creation/striping metadata plus the
// client-side request path: list I/O decomposition into per-server shards
// driven by one state machine — timeouts and retries under fault injection,
// replica fan-out and failover under replication, a single request/reply
// per shard otherwise.
#pragma once

#include <cstddef>
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
  FileSystem(sim::Engine& eng, net::Network& net, std::vector<DataServer*> servers,
             StripeLayout layout);

  /// Create a file of `size` bytes: allocates extents on every data server.
  FileId create(const std::string& name, std::uint64_t size);

  const FileInfo& info(FileId id) const { return files_.at(id); }
  const StripeLayout& layout() const { return layout_; }
  std::uint32_t num_servers() const { return static_cast<std::uint32_t>(servers_.size()); }
  DataServer& server(std::uint32_t i) { return *servers_[i]; }
  net::Network& network() { return net_; }
  sim::Engine& engine() { return eng_; }

  /// Arm fault injection: clients arm a timeout on every request and retry.
  /// Null (the default) arms none, so every request is sent exactly once.
  void set_fault_injector(fault::FaultInjector* inj) { injector_ = inj; }
  fault::FaultInjector* fault_injector() { return injector_; }

  /// Arm n-way replication: create() allocates per-role replica regions and
  /// client calls address every copy (write fan-out to every copy, degraded
  /// reads with transparent failover). Null, or a manager whose config has
  /// replication_factor == 1, keeps the one-copy layout and requests
  /// byte-for-byte.
  void set_replicas(replica::RepairManager* r) { replicas_ = r; }
  replica::RepairManager* replicas() { return replicas_; }

 private:
  sim::Engine& eng_;
  net::Network& net_;
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

  /// List I/O: read or write `segments` of `file`. Segments are decomposed
  /// into per-server runs (order-preserving, contiguity-coalescing) and one
  /// request message goes to each involved server — to each involved server
  /// of every copy for a replicated write. `done(bytes, status)` fires when
  /// every shard has replied, failed definitively, failed over to another
  /// copy, or exhausted the retry budget (per-request timeout, capped
  /// exponential backoff; timeouts are armed only under fault injection).
  void io(FileId file, std::span<const Segment> segments, bool is_write,
          std::uint64_t context, IoDoneFn done);

  net::NodeId node() const { return node_; }
  std::uint64_t calls() const { return calls_; }
  /// Call records still held. Zero once a run has drained: a nonzero count
  /// means a call never finished or a closure kept its reference (tests
  /// check it).
  std::size_t live_calls() const { return ops_.live(); }

 private:
  /// One request stream of a call: the runs it asks one server for, under
  /// one copy (role), and its retransmission state.
  struct Shard {
    std::uint32_t server = 0;
    std::uint32_t role = 0;
    std::uint32_t attempt = 0;  ///< attempts sent so far
    bool completed = false;
    fault::Status status = fault::Status::kOk;  ///< the outcome, once completed
    sim::EventId timeout{};
    std::vector<ServerRun> runs;  ///< every attempt's request is built from these
    std::uint64_t req_msg = 0;
    std::uint64_t reply_msg = 0;
    sim::Time first_sent = -1;  ///< failover-latency epoch
    /// File-space coverage, chunk-coalesced: failover re-decomposes these
    /// under the next role, and write failures invalidate their chunks.
    /// Empty in the one-copy case, which needs neither.
    std::vector<Segment> ranges;

    /// Wire sizes of the request/reply pair from the runs. Request: header
    /// + run descriptors (+ payload for writes); reply: header (+ payload
    /// for reads).
    void size_messages(bool is_write);
  };

  /// Control block of one io() call, a record of ops_. It lives while the
  /// call is pending (`done` fires when every shard is terminal) and while an
  /// OpRef holds it: a request still in flight after the call finished is
  /// built from the record when it arrives. Replies hold no reference; one
  /// that finds its record freed (a new generation in its slot) is stale.
  struct Op {
    std::uint32_t refs = 0;
    std::uint32_t pending = 0;  ///< shards not yet terminal (grows on failover)
    /// Shards 0 .. nshards - 1 belong to the call; a write's sit role by role.
    std::uint32_t nshards = 0;
    FileId file = 0;
    std::uint64_t context = 0;
    bool is_write = false;
    /// Attempts arm timeouts (fault injection is on), so a shard may be resent.
    bool timed = false;
    bool degraded_counted = false;
    bool chained = false;  ///< a chain fan-out write: stage_pending is live
    /// Reads: worst outcome across shards that failed without a failover path.
    fault::Status read_status = fault::Status::kOk;
    /// Shard 0 sits in the record, beside the state every request and reply
    /// reads: most calls have one. The others live in `more`, which never
    /// shrinks, so a recycled record's shards keep their run storage.
    Shard first;
    std::uint64_t total_bytes = 0;
    IoDoneFn done;
    replica::RepairManager* mgr = nullptr;  ///< null: the one-copy case
    std::uint64_t file_size = 0;  ///< replica address math (mgr only)
    /// Chained writes: outstanding shards per role stage.
    std::vector<std::uint32_t> stage_pending;
    std::vector<Shard> more;

    Shard& shard(std::uint32_t i) { return i == 0 ? first : more[i - 1]; }
    /// Append a blank shard, reusing a spare one past nshards.
    Shard& add_shard();
  };

  /// Counted reference to record `slot` of ops_, held by every closure that
  /// reads the record later: a request on its way to a server (built from
  /// the shard's runs on arrival), a timeout, a backoff. A closure destroyed
  /// unfired — a dropped request, a cancelled timeout — releases its
  /// reference, and a finished call's last one frees the record, so message
  /// loss never leaks a call.
  class OpRef {
   public:
    OpRef(Client* c, std::uint32_t slot) : client_(c), slot_(slot) {
      ++c->ops_.at(slot).refs;
    }
    OpRef(OpRef&& o) noexcept : client_(o.client_), slot_(o.slot_) {
      o.client_ = nullptr;
    }
    OpRef(const OpRef&) = delete;
    OpRef& operator=(const OpRef&) = delete;
    OpRef& operator=(OpRef&&) = delete;
    ~OpRef() {
      if (client_ == nullptr) return;
      Op& op = client_->ops_.at(slot_);
      if (--op.refs == 0 && op.pending == 0) client_->ops_.release(slot_);
    }
    std::uint32_t slot() const { return slot_; }

   private:
    Client* client_;
    std::uint32_t slot_;
  };

  /// Copies the call addresses: the replication factor, or 1 without a manager.
  static std::uint32_t copies(const Op& op);
  /// Append `segments`' shards under copy `role` (replicated calls).
  static void add_role_shards(Op& op, std::span<const Segment> segments,
                              std::uint32_t role);

  void start_attempt_(std::uint32_t slot, std::uint32_t idx);
  void start_stage_(std::uint32_t slot, std::uint32_t role);
  /// The previous copy's server that relays a chained write shard.
  DataServer& chain_forwarder(const Op& op, const Shard& sh);
  /// Attempt `attempt` of shard `idx` reached its server: build the request
  /// from the shard's runs and hand it over.
  void arrive_(std::uint32_t slot, std::uint32_t idx, std::uint32_t attempt);
  /// A reply to attempt `attempt` of shard `idx` of the call that held
  /// record `slot` at generation `gen`.
  void on_reply_(std::uint32_t slot, std::uint32_t gen, std::uint32_t idx,
                 std::uint32_t attempt, fault::Status st);
  void on_timeout_(std::uint32_t slot, std::uint32_t idx);
  void failover_(std::uint32_t slot, std::uint32_t idx);
  void terminal_(std::uint32_t slot, std::uint32_t idx, fault::Status st);
  void finish_if_done_(std::uint32_t slot);

  FileSystem& fs_;
  net::NodeId node_;
  std::uint64_t calls_ = 0;
  /// Per-client decomposition scratch: the per-server outer vector is sized
  /// once and the send path walks only the servers a call actually touches —
  /// at 256+ servers the old per-call allocation and full-width scans
  /// dominated small requests.
  DecomposeScratch scratch_;
  sim::Slab<Op> ops_;
  /// The request arrive_() hands a server. handle() swaps it with a pooled
  /// record, so its run storage circulates between the client and the
  /// server instead of being allocated per request.
  ServerIoRequest req_;
};

}  // namespace dpar::pfs
