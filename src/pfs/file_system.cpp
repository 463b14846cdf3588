#include "pfs/file_system.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <utility>

#include "fault/injector.hpp"
#include "replica/manager.hpp"

namespace dpar::pfs {

FileSystem::FileSystem(sim::Engine& eng, net::Network& net, net::NodeId metadata_node,
                       std::vector<DataServer*> servers, StripeLayout layout)
    : eng_(eng),
      net_(net),
      metadata_node_(metadata_node),
      servers_(std::move(servers)),
      layout_(layout) {
  if (servers_.empty()) throw std::invalid_argument("FileSystem: no data servers");
  layout_.num_servers = static_cast<std::uint32_t>(servers_.size());
}

FileId FileSystem::create(const std::string& name, std::uint64_t size) {
  const FileId id = next_file_id_++;
  files_.emplace(id, FileInfo{id, name, size});
  if (replicas_ != nullptr && replicas_->config().enabled()) {
    // Replicated file: every server gets the uniform primary + per-role
    // replica-region extent (any server can host any chunk's copy), and the
    // repair manager starts tracking the copies.
    const std::uint64_t extent = replicas_->map().extent_bytes(size);
    for (std::uint32_t s = 0; s < layout_.num_servers; ++s)
      servers_[s]->allocate(id, extent);
    replicas_->register_file(id, size);
    return id;
  }
  for (std::uint32_t s = 0; s < layout_.num_servers; ++s) {
    // Allocate the server's striped share (rounded up one unit for slack).
    const std::uint64_t share = layout_.server_share(s, size) + layout_.unit_bytes;
    servers_[s]->allocate(id, share);
  }
  return id;
}

void Client::open(FileId file, sim::UniqueFunction done) {
  (void)file;
  // Request to the metadata server and reply, both small messages.
  auto& net = fs_.network();
  const auto mds = fs_.metadata_node();
  net.send(node_, mds, 128, [this, &net, mds, done = std::move(done)]() mutable {
    net.send(mds, node_, 256, std::move(done));
  });
}

namespace {

/// Control block for one robust (fault-injected) client I/O call.
///
/// Ownership is reference-counted: every closure that can reach the op — the
/// per-shard timeout event, the request-delivery/reply chain through the
/// network — holds one ref via an RAII OpRef. A dropped message destroys its
/// closure unfired, which releases the ref automatically, so silent network
/// loss can never leak the op. `done` fires when every shard has finished
/// (reply, definitive error, or exhausted retries); the block itself is freed
/// when the last ref goes away (e.g. a stale retransmitted reply still in
/// flight after completion).
struct IoOp {
  FileSystem* fs;
  net::NodeId client_node;
  FileId file;
  bool is_write;
  std::uint64_t context;
  std::uint64_t total_bytes;
  fault::Status status = fault::Status::kOk;
  std::uint32_t pending;
  std::uint32_t refs = 0;
  IoDoneFn done;

  /// One per involved server.
  struct Shard {
    std::uint32_t server;
    std::vector<ServerRun> runs;  ///< kept across attempts for retransmission
    std::uint64_t req_msg;
    std::uint64_t reply_msg;
    std::uint32_t attempt = 0;  ///< attempts sent so far
    bool completed = false;
    sim::EventId timeout{};
  };
  std::vector<Shard> shards;

  void unref() {
    if (--refs == 0) delete this;
  }
};

/// Move-only RAII reference to an IoOp; safe to capture in closures that may
/// be destroyed without running (dropped messages, cancelled timeouts).
struct OpRef {
  IoOp* op;
  explicit OpRef(IoOp* o) : op(o) { ++o->refs; }
  OpRef(OpRef&& other) noexcept : op(other.op) { other.op = nullptr; }
  OpRef(const OpRef&) = delete;
  OpRef& operator=(const OpRef&) = delete;
  OpRef& operator=(OpRef&&) = delete;
  ~OpRef() {
    if (op) op->unref();
  }
};

void start_attempt(IoOp* op, std::size_t idx);

/// A shard is done for good (reply arrived or retries exhausted).
void finish_shard(IoOp* op, std::size_t idx, fault::Status st) {
  IoOp::Shard& sh = op->shards[idx];
  sh.completed = true;
  op->status = fault::combine(op->status, st);
  if (--op->pending == 0) {
    ++op->fs->fault_injector()->counters().client_ops_finished;
    // Move out first: `done` may start new I/O or otherwise re-enter.
    IoDoneFn done = std::move(op->done);
    if (done) done(op->total_bytes, op->status);
  }
}

void on_reply(IoOp* op, std::size_t idx, std::uint32_t attempt, fault::Status st) {
  IoOp::Shard& sh = op->shards[idx];
  fault::FaultInjector& inj = *op->fs->fault_injector();
  if (sh.completed || sh.attempt != attempt) {
    // A retransmission raced the original: this reply answers a question the
    // client is no longer asking.
    ++inj.counters().client_stale_replies;
    return;
  }
  if (sh.timeout) {
    op->fs->engine().cancel(sh.timeout);
    sh.timeout = {};
  }
  if (sh.attempt > 1) ++inj.counters().client_recoveries;
  // Definitive server answers (including media errors) are final: the server
  // already retried at the drive level, resending the request cannot help.
  finish_shard(op, idx, st);
}

void on_timeout(IoOp* op, std::size_t idx) {
  IoOp::Shard& sh = op->shards[idx];
  sh.timeout = {};
  if (sh.completed) return;
  fault::FaultInjector& inj = *op->fs->fault_injector();
  ++inj.counters().client_timeouts;
  if (sh.attempt > inj.max_retries()) {
    ++inj.counters().client_failures;
    fault::Status st = fault::Status::kTimeout;
    if (inj.server_down(sh.server)) {
      if (inj.permanently_down(sh.server, op->fs->engine().now())) {
        // Fail-stop server: "gone", not "slow" — the caller (and the repair
        // manager) must not keep hoping for a restart.
        ++inj.counters().client_permanent_failures;
        st = fault::Status::kPermanentFailure;
      } else {
        st = fault::Status::kServerDown;
      }
    }
    finish_shard(op, idx, st);
    return;
  }
  ++inj.counters().client_retries;
  op->fs->engine().after(inj.backoff(sh.attempt), [ref = OpRef(op), idx] {
    start_attempt(ref.op, idx);
  });
}

void start_attempt(IoOp* op, std::size_t idx) {
  IoOp::Shard& sh = op->shards[idx];
  ++sh.attempt;
  const std::uint32_t attempt = sh.attempt;
  fault::FaultInjector& inj = *op->fs->fault_injector();
  sim::Engine& eng = op->fs->engine();
  // Patience scales with the payload so large CRM batches are not declared
  // dead while legitimately streaming.
  sh.timeout = eng.after(inj.request_timeout(sh.req_msg + sh.reply_msg),
                         [ref = OpRef(op), idx] { on_timeout(ref.op, idx); });

  DataServer& srv = op->fs->server(sh.server);
  net::Network& net = op->fs->network();
  const net::NodeId srv_node = srv.node();
  const net::NodeId client_node = op->client_node;
  const std::uint64_t reply_msg = sh.reply_msg;

  ServerIoRequest req;
  req.file = op->file;
  req.is_write = op->is_write;
  req.context = op->context;
  req.runs = sh.runs;  // copy: retransmission may need them again
  req.done = [&net, srv_node, client_node, reply_msg, idx, attempt,
              ref = OpRef(op)](fault::Status st) mutable {
    net.send(srv_node, client_node, reply_msg,
             [ref = std::move(ref), idx, attempt, st] {
               on_reply(ref.op, idx, attempt, st);
             });
  };
  net.send(client_node, srv_node, sh.req_msg,
           [&srv, req = std::move(req)]() mutable { srv.handle(std::move(req)); });
}

}  // namespace

namespace {

/// Wire sizes of one shard's request/reply pair. Request message: header +
/// run descriptors (+ payload for writes); reply: header (+ payload for
/// reads). The single summation site shared by the robust and fast paths.
struct ShardSizing {
  std::uint64_t req_msg;
  std::uint64_t reply_msg;
};

ShardSizing size_shard(const std::vector<ServerRun>& runs, bool is_write) {
  std::uint64_t run_bytes = 0;
  for (const auto& r : runs) run_bytes += r.length;
  return ShardSizing{96 + 16 * runs.size() + (is_write ? run_bytes : 0),
                     is_write ? 64 : run_bytes + 64};
}

}  // namespace

// ---------------------------------------------------------------------------
// Replicated request path (replication_factor > 1).
//
// Writes fan out one shard set per replica role — star (all roles at once)
// or chain (role r+1 starts when role r completed, each hop relayed through
// the previous copy's server). Reads start against the primaries (role 0)
// and transparently fail over, shard by shard, to the next surviving role
// when a shard comes back with a crash, media error, or exhausted timeout —
// a degraded read. Ownership follows the IoOp pattern above: refcounted
// control block, RAII references in every closure.
// ---------------------------------------------------------------------------

namespace {

struct RepOp {
  FileSystem* fs;
  replica::RepairManager* mgr;
  net::NodeId client_node;
  FileId file;
  std::uint64_t file_size;
  bool is_write;
  std::uint64_t context;
  std::uint64_t total_bytes;
  std::uint32_t pending;  ///< shards not yet terminal (grows on failover)
  std::atomic<std::uint32_t> refs = 0;
  bool degraded_counted = false;
  IoDoneFn done;
  /// Writes: worst outcome per role; the op succeeds if ANY role's shard set
  /// fully succeeded (each role covers every chunk once, so one clean role
  /// means every chunk kept at least one valid copy).
  std::vector<fault::Status> role_status;
  /// Reads: worst outcome across shards that failed without a failover path.
  fault::Status read_status = fault::Status::kOk;
  /// Chain fan-out: outstanding shards per role stage.
  std::vector<std::uint32_t> stage_pending;

  struct Shard {
    std::uint32_t server;
    std::uint32_t role;
    std::vector<ServerRun> runs;
    /// File-space coverage, chunk-coalesced: failover re-decomposes these
    /// under the next role, and write failures invalidate their chunks.
    std::vector<Segment> ranges;
    std::uint64_t req_msg = 0;
    std::uint64_t reply_msg = 0;
    std::uint32_t attempt = 0;
    bool completed = false;
    sim::EventId timeout{};
    sim::Time first_sent = -1;  ///< failover-latency epoch
  };
  std::vector<Shard> shards;

  void unref() {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }
};

struct RepOpRef {
  RepOp* op;
  explicit RepOpRef(RepOp* o) : op(o) { o->refs.fetch_add(1, std::memory_order_relaxed); }
  RepOpRef(RepOpRef&& other) noexcept : op(other.op) { other.op = nullptr; }
  RepOpRef(const RepOpRef&) = delete;
  RepOpRef& operator=(const RepOpRef&) = delete;
  RepOpRef& operator=(RepOpRef&&) = delete;
  ~RepOpRef() {
    if (op) op->unref();
  }
};

/// Decompose `segments` under copy `role` into per-server shards: runs in
/// the role's replica-local address space (contiguous chunks on one server
/// coalesce — consecutive chunks are adjacent inside a replica region) plus
/// the chunk-coalesced file-space ranges each shard covers. Shards come out
/// sorted by server id.
void build_role_shards(const replica::ReplicaMap& map, std::uint64_t file_size,
                       std::span<const Segment> segments, std::uint32_t role,
                       bool is_write, std::uint64_t context_unused,
                       std::vector<RepOp::Shard>& out) {
  (void)context_unused;
  const std::uint64_t unit = map.layout().unit_bytes;
  auto shard_for = [&out, role](std::uint32_t server) -> RepOp::Shard& {
    for (auto& sh : out)
      if (sh.server == server && sh.role == role) return sh;
    RepOp::Shard sh;
    sh.server = server;
    sh.role = role;
    out.push_back(std::move(sh));
    return out.back();
  };
  for (const Segment& seg : segments) {
    std::uint64_t off = seg.offset;
    while (off < seg.end()) {
      const std::uint64_t chunk = off / unit;
      const std::uint64_t len = std::min(seg.end() - off, (chunk + 1) * unit - off);
      RepOp::Shard& sh = shard_for(map.server_of(chunk, role));
      const std::uint64_t local = map.replica_local_offset(file_size, off, role);
      if (!sh.runs.empty() &&
          sh.runs.back().local_offset + sh.runs.back().length == local) {
        sh.runs.back().length += len;
      } else {
        sh.runs.push_back(ServerRun{local, len});
      }
      if (!sh.ranges.empty() && sh.ranges.back().end() == off) {
        sh.ranges.back().length += len;
      } else {
        sh.ranges.push_back(Segment{off, len});
      }
      off += len;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RepOp::Shard& a, const RepOp::Shard& b) {
              return a.role != b.role ? a.role < b.role : a.server < b.server;
            });
  for (auto& sh : out) {
    const ShardSizing wire = size_shard(sh.runs, is_write);
    sh.req_msg = wire.req_msg;
    sh.reply_msg = wire.reply_msg;
  }
}

/// Chunk indices a shard's file ranges cover (for invalidation notes).
std::vector<std::uint64_t> chunks_of_ranges(const replica::ReplicaMap& map,
                                            const std::vector<Segment>& ranges) {
  const std::uint64_t unit = map.layout().unit_bytes;
  std::vector<std::uint64_t> chunks;
  for (const Segment& r : ranges)
    for (std::uint64_t k = r.offset / unit; k * unit < r.end(); ++k)
      if (chunks.empty() || chunks.back() != k) chunks.push_back(k);
  return chunks;
}

void start_rep_attempt(RepOp* op, std::size_t idx);
void start_rep_stage(RepOp* op, std::uint32_t role);

void finish_rep_op_if_done(RepOp* op) {
  if (op->pending != 0) return;
  if (fault::FaultInjector* inj = op->fs->fault_injector())
    ++inj->counters().client_ops_finished;
  fault::Status st;
  if (op->is_write) {
    // Best role wins: one fully-successful shard set means every chunk
    // landed at least one valid copy.
    st = op->role_status.front();
    for (fault::Status rs : op->role_status) st = st < rs ? st : rs;
  } else {
    st = op->read_status;
  }
  IoDoneFn done = std::move(op->done);
  if (done) done(op->total_bytes, st);
}

/// Read-shard failover: retire `idx` without folding its failure into the
/// op and aim a fresh shard set at the next role for the same file ranges.
void failover_shard(RepOp* op, std::size_t idx) {
  sim::Engine& eng = op->fs->engine();
  replica::Counters& rc = op->mgr->counters();
  const std::uint32_t next_role = op->shards[idx].role + 1;
  op->shards[idx].completed = true;
  ++rc.failover_shards;
  rc.failover_latency_ns += static_cast<std::uint64_t>(
      eng.now() - op->shards[idx].first_sent);
  if (!op->degraded_counted) {
    op->degraded_counted = true;
    ++rc.degraded_reads;
  }
  std::vector<RepOp::Shard> fresh;
  build_role_shards(op->mgr->map(), op->file_size, op->shards[idx].ranges,
                    next_role, /*is_write=*/false, op->context, fresh);
  const std::size_t base = op->shards.size();
  op->pending += static_cast<std::uint32_t>(fresh.size());
  for (auto& sh : fresh) op->shards.push_back(std::move(sh));
  --op->pending;  // the failed shard itself is done
  for (std::size_t i = base; i < op->shards.size(); ++i) start_rep_attempt(op, i);
  finish_rep_op_if_done(op);
}

/// A shard is done for good: fold its outcome and advance the chain stage.
void terminal_rep_shard(RepOp* op, std::size_t idx, fault::Status st) {
  RepOp::Shard& sh = op->shards[idx];
  sh.completed = true;
  if (op->is_write) {
    op->role_status[sh.role] = fault::combine(op->role_status[sh.role], st);
    if (!fault::ok(st)) {
      // This role's copies of the shard's chunks never landed: tell the
      // repair manager so re-replication can restore them.
      ++op->mgr->counters().copy_write_failures;
      op->mgr->post_invalid_copies(op->file, sh.role,
                                   chunks_of_ranges(op->mgr->map(), sh.ranges));
    }
    if (!op->stage_pending.empty()) {
      const std::uint32_t role = sh.role;
      if (--op->stage_pending[role] == 0 &&
          role + 1 < op->mgr->config().replication_factor)
        start_rep_stage(op, role + 1);
    }
  } else {
    // Only reads that ran out of replicas reach here with a failure.
    if (!fault::ok(st)) ++op->mgr->counters().out_of_replica_reads;
    op->read_status = fault::combine(op->read_status, st);
  }
  --op->pending;
  finish_rep_op_if_done(op);
}

void on_rep_reply(RepOp* op, std::size_t idx, std::uint32_t attempt,
                  fault::Status st) {
  RepOp::Shard& sh = op->shards[idx];
  fault::FaultInjector* inj = op->fs->fault_injector();
  if (sh.completed || sh.attempt != attempt) {
    if (inj) ++inj->counters().client_stale_replies;
    return;
  }
  if (sh.timeout) {
    op->fs->engine().cancel(sh.timeout);
    sh.timeout = {};
  }
  if (inj && sh.attempt > 1) ++inj->counters().client_recoveries;
  if (!op->is_write && !fault::ok(st) &&
      sh.role + 1 < op->mgr->config().replication_factor) {
    // Definitive failure (media error on the primary's region): the copy is
    // beyond retransmission, but a surviving replica can serve the read.
    failover_shard(op, idx);
    return;
  }
  terminal_rep_shard(op, idx, st);
}

void on_rep_timeout(RepOp* op, std::size_t idx) {
  RepOp::Shard& sh = op->shards[idx];
  sh.timeout = {};
  if (sh.completed) return;
  fault::FaultInjector& inj = *op->fs->fault_injector();
  ++inj.counters().client_timeouts;
  const std::uint32_t rf = op->mgr->config().replication_factor;
  if (!op->is_write && sh.role + 1 < rf &&
      sh.attempt > op->mgr->config().read_failover_after_retries) {
    // Reads give up on a silent copy quickly: surviving replicas make long
    // patience pointless.
    failover_shard(op, idx);
    return;
  }
  if (sh.attempt > inj.max_retries()) {
    ++inj.counters().client_failures;
    fault::Status st = fault::Status::kTimeout;
    if (inj.server_down(sh.server)) {
      if (inj.permanently_down(sh.server, op->fs->engine().now())) {
        ++inj.counters().client_permanent_failures;
        st = fault::Status::kPermanentFailure;
      } else {
        st = fault::Status::kServerDown;
      }
    }
    if (!op->is_write && sh.role + 1 < rf) {
      failover_shard(op, idx);
      return;
    }
    terminal_rep_shard(op, idx, st);
    return;
  }
  ++inj.counters().client_retries;
  op->fs->engine().after(inj.backoff(sh.attempt), [ref = RepOpRef(op), idx] {
    start_rep_attempt(ref.op, idx);
  });
}

void start_rep_attempt(RepOp* op, std::size_t idx) {
  RepOp::Shard& sh = op->shards[idx];
  ++sh.attempt;
  const std::uint32_t attempt = sh.attempt;
  sim::Engine& eng = op->fs->engine();
  if (sh.first_sent < 0) sh.first_sent = eng.now();
  if (fault::FaultInjector* inj = op->fs->fault_injector()) {
    sh.timeout = eng.after(inj->request_timeout(sh.req_msg + sh.reply_msg),
                           [ref = RepOpRef(op), idx] { on_rep_timeout(ref.op, idx); });
  }

  DataServer& srv = op->fs->server(sh.server);
  net::Network& net = op->fs->network();
  const net::NodeId srv_node = srv.node();
  const net::NodeId client_node = op->client_node;
  const std::uint64_t reply_msg = sh.reply_msg;

  ServerIoRequest req;
  req.file = op->file;
  req.is_write = op->is_write;
  req.context = op->context;
  req.runs = sh.runs;  // copy: retransmission may need them again
  req.done = [&net, srv_node, client_node, reply_msg, idx, attempt,
              ref = RepOpRef(op)](fault::Status st) mutable {
    net.send(srv_node, client_node, reply_msg,
             [ref = std::move(ref), idx, attempt, st] {
               on_rep_reply(ref.op, idx, attempt, st);
             });
  };

  const bool chained = op->is_write && sh.role > 0 &&
                       op->mgr->config().fanout == replica::WriteFanout::kChain;
  if (chained) {
    // Chain hop: route through the previous role's server for the shard's
    // first chunk. The relay uses the forwarder's NIC and TX FIFO, and a
    // crashed forwarder drops the hop (the client times out and retransmits
    // through it again).
    const std::uint64_t first_chunk =
        sh.ranges.front().offset / op->mgr->map().layout().unit_bytes;
    DataServer& fwd =
        op->fs->server(op->mgr->map().server_of(first_chunk, sh.role - 1));
    const net::NodeId fwd_node = fwd.node();
    replica::RepairManager* mgr = op->mgr;
    const std::uint64_t req_msg = sh.req_msg;
    net.send(client_node, fwd_node, req_msg,
             [&net, &fwd, &srv, fwd_node, srv_node, req_msg, mgr,
              req = std::move(req)]() mutable {
               if (fwd.is_down()) return;
               ++mgr->counters().chain_forwards;
               net.send(fwd_node, srv_node, req_msg,
                        [&srv, req = std::move(req)]() mutable {
                          srv.handle(std::move(req));
                        });
             });
    return;
  }
  net.send(client_node, srv_node, sh.req_msg,
           [&srv, req = std::move(req)]() mutable { srv.handle(std::move(req)); });
}

void start_rep_stage(RepOp* op, std::uint32_t role) {
  for (std::size_t i = 0; i < op->shards.size(); ++i)
    if (op->shards[i].role == role && op->shards[i].attempt == 0)
      start_rep_attempt(op, i);
}

void replicated_io(FileSystem& fs, net::NodeId node, replica::RepairManager& mgr,
                   FileId file, std::span<const Segment> segments,
                   bool is_write, std::uint64_t context, IoDoneFn done) {
  const std::uint64_t file_size = fs.info(file).size;
  std::uint64_t total_bytes = 0;
  for (const Segment& seg : segments) total_bytes += seg.length;
  const std::uint32_t rf = mgr.config().replication_factor;

  std::vector<RepOp::Shard> shards;
  if (is_write) {
    for (std::uint32_t r = 0; r < rf; ++r)
      build_role_shards(mgr.map(), file_size, segments, r, true, context, shards);
  } else {
    build_role_shards(mgr.map(), file_size, segments, 0, false, context, shards);
  }
  if (shards.empty()) {
    fs.engine().after(0, [done = std::move(done)]() mutable {
      done(0, fault::Status::kOk);
    });
    return;
  }

  if (fault::FaultInjector* inj = fs.fault_injector())
    ++inj->counters().client_ops_started;
  auto* op = new RepOp{};
  op->fs = &fs;
  op->mgr = &mgr;
  op->client_node = node;
  op->file = file;
  op->file_size = file_size;
  op->is_write = is_write;
  op->context = context;
  op->total_bytes = total_bytes;
  op->pending = static_cast<std::uint32_t>(shards.size());
  op->done = std::move(done);
  op->shards = std::move(shards);

  if (is_write) {
    op->role_status.assign(rf, fault::Status::kOk);
    replica::Counters& rc = mgr.counters();
    ++rc.writes_replicated;
    for (const auto& sh : op->shards)
      if (sh.role > 0) ++rc.write_copy_shards;
    if (mgr.config().fanout == replica::WriteFanout::kChain) {
      op->stage_pending.assign(rf, 0);
      for (const auto& sh : op->shards) ++op->stage_pending[sh.role];
      start_rep_stage(op, 0);
      return;
    }
  }
  // Star fan-out (and all reads): every shard goes out at once.
  for (std::size_t i = 0; i < op->shards.size(); ++i) start_rep_attempt(op, i);
}

}  // namespace

void Client::io(FileId file, std::span<const Segment> segments, bool is_write,
                std::uint64_t context, IoDoneFn done) {
  ++calls_;
  if (replica::RepairManager* mgr = fs_.replicas();
      mgr != nullptr && mgr->config().enabled()) {
    replicated_io(fs_, node_, *mgr, file, segments, is_write, context,
                  std::move(done));
    return;
  }
  scratch_.reset(fs_.num_servers());
  std::uint64_t total_bytes = 0;
  for (const Segment& seg : segments) {
    if (seg.length == 0) continue;
    total_bytes += seg.length;
    decompose_segment(fs_.layout(), seg, scratch_);
  }

  // Servers are contacted in ascending id order (touched records first-touch
  // order); only the servers actually holding data are visited.
  std::sort(scratch_.touched.begin(), scratch_.touched.end());
  auto& per_server = scratch_.per_server;
  const auto involved = static_cast<std::uint32_t>(scratch_.touched.size());
  if (involved == 0) {
    fs_.engine().after(0, [done = std::move(done)]() mutable {
      done(0, fault::Status::kOk);
    });
    return;
  }

  if (fault::FaultInjector* inj = fs_.fault_injector()) {
    // Robust path: one retriable shard per involved server, per-request
    // timeouts, capped exponential backoff.
    ++inj->counters().client_ops_started;
    auto* op = new IoOp{&fs_,       node_,   file, is_write,
                        context,    total_bytes, fault::Status::kOk,
                        involved,   0,       std::move(done),
                        {}};
    op->shards.reserve(involved);
    for (std::uint32_t s : scratch_.touched) {
      const ShardSizing wire = size_shard(per_server[s], is_write);
      IoOp::Shard sh;
      sh.server = s;
      sh.runs = std::move(per_server[s]);
      sh.req_msg = wire.req_msg;
      sh.reply_msg = wire.reply_msg;
      op->shards.push_back(std::move(sh));
    }
    // First attempts start only after every shard exists: start_attempt may
    // index into op->shards from re-entered engine callbacks.
    for (std::size_t i = 0; i < op->shards.size(); ++i) start_attempt(op, i);
    return;
  }

  // Fault-free fast path: one pooled fan-in, no timeout events, and one
  // pooled message record per server — nothing here allocates once the
  // pools and run vectors have grown to the run's working set.
  const std::uint32_t fan = fans_.open(involved, std::move(done), Reply{total_bytes});
  for (std::uint32_t s : scratch_.touched) {
    DataServer& srv = fs_.server(s);
    const ShardSizing wire = size_shard(per_server[s], is_write);
    const std::uint32_t slot = sends_.acquire();
    Send& m = sends_.at(slot);
    m.req.file = file;
    m.req.is_write = is_write;
    m.req.context = context;
    m.req.runs.swap(per_server[s]);
    per_server[s].clear();
    m.srv = &srv;
    m.reply_msg = wire.reply_msg;
    m.fan = fan;
    fs_.network().send(node_, srv.node(), wire.req_msg,
                       sim::inline_fn([this, slot] { deliver_(slot); }));
  }
}

void Client::deliver_(std::uint32_t slot) {
  Send& m = sends_.at(slot);
  const net::NodeId srv_node = m.srv->node();
  const std::uint64_t reply_msg = m.reply_msg;
  const std::uint32_t fan = m.fan;
  m.req.done = sim::inline_fn([this, srv_node, reply_msg, fan](fault::Status st) {
    fs_.network().send(srv_node, node_, reply_msg,
                       sim::inline_fn([this, fan, st] { replied_(fan, st); }));
  });
  m.srv->handle(std::move(m.req));
  sends_.release(slot);
}

void Client::replied_(std::uint32_t fan, fault::Status st) {
  Reply& r = fans_.acc(fan);
  r.status = fault::combine(r.status, st);
  fans_.complete(fan, [](IoDoneFn& done, Reply& reply) {
    done(reply.bytes, reply.status);
  });
}

}  // namespace dpar::pfs
