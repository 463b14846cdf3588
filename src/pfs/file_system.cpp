#include "pfs/file_system.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "fault/injector.hpp"
#include "replica/manager.hpp"

namespace dpar::pfs {

FileSystem::FileSystem(sim::Engine& eng, net::Network& net,
                       std::vector<DataServer*> servers, StripeLayout layout)
    : eng_(eng), net_(net), servers_(std::move(servers)), layout_(layout) {
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

namespace {

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

}  // namespace

// ---------------------------------------------------------------------------
// The request state machine.
//
// A call is one Op with a shard per (copy, server) pair. Every shard sends a
// request and waits for its reply; under fault injection each attempt also
// arms a per-request timeout and retries with capped exponential backoff.
// Without a repair manager the call has one copy: one role-0 shard per
// involved server. With one, writes fan out a shard set per replica role —
// star (all roles at once) or chain (role r+1 starts when role r completed,
// each hop relayed through the previous copy's server) — and reads start
// against the primaries (role 0) and transparently fail over, shard by
// shard, to the next surviving role when a shard comes back with a crash,
// media error, or exhausted timeout — a degraded read.
// ---------------------------------------------------------------------------

Client::Shard& Client::Op::add_shard() {
  if (nshards > more.size()) more.emplace_back();
  Shard& sh = shard(nshards++);
  sh.runs.clear();
  sh.ranges.clear();
  sh.attempt = 0;
  sh.completed = false;
  sh.status = fault::Status::kOk;
  sh.timeout = {};
  sh.first_sent = -1;
  return sh;
}

void Client::Shard::size_messages(bool is_write) {
  std::uint64_t run_bytes = 0;
  for (const auto& r : runs) run_bytes += r.length;
  req_msg = 96 + 16 * runs.size() + (is_write ? run_bytes : 0);
  reply_msg = is_write ? 64 : run_bytes + 64;
}

std::uint32_t Client::copies(const Op& op) {
  return op.mgr ? op.mgr->config().replication_factor : 1;
}

/// Decompose `segments` under copy `role` into per-server shards: runs in
/// the role's replica-local address space (contiguous chunks on one server
/// coalesce — consecutive chunks are adjacent inside a replica region) plus
/// the chunk-coalesced file-space ranges each shard covers. The new shards
/// come out sorted by server id.
void Client::add_role_shards(Op& op, std::span<const Segment> segments,
                             std::uint32_t role) {
  const replica::ReplicaMap& map = op.mgr->map();
  const std::uint64_t unit = map.layout().unit_bytes;
  const std::uint32_t base = op.nshards;
  auto shard_for = [&op, base, role](std::uint32_t server) -> Shard& {
    for (std::uint32_t i = base; i < op.nshards; ++i)
      if (op.shard(i).server == server) return op.shard(i);
    Shard& sh = op.add_shard();
    sh.server = server;
    sh.role = role;
    return sh;
  };
  for (const Segment& seg : segments) {
    std::uint64_t off = seg.offset;
    while (off < seg.end()) {
      const std::uint64_t chunk = off / unit;
      const std::uint64_t len = std::min(seg.end() - off, (chunk + 1) * unit - off);
      Shard& sh = shard_for(map.server_of(chunk, role));
      const std::uint64_t local = map.replica_local_offset(op.file_size, off, role);
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
  // Insertion sort by server: one new shard per server, a handful.
  for (std::uint32_t i = base + 1; i < op.nshards; ++i)
    for (std::uint32_t j = i;
         j > base && op.shard(j).server < op.shard(j - 1).server; --j)
      std::swap(op.shard(j), op.shard(j - 1));
  for (std::uint32_t i = base; i < op.nshards; ++i)
    op.shard(i).size_messages(op.is_write);
}

void Client::finish_if_done_(std::uint32_t slot) {
  Op& op = ops_.at(slot);
  if (op.pending != 0) return;
  if (fault::FaultInjector* inj = fs_.fault_injector())
    ++inj->counters().client_ops_finished;
  fault::Status st = op.read_status;
  if (op.is_write) {
    // Best role wins: each role covers every chunk once, so one role whose
    // shards all succeeded means every chunk landed a valid copy.
    for (std::uint32_t i = 0; i < op.nshards;) {
      const std::uint32_t role = op.shard(i).role;
      fault::Status worst = fault::Status::kOk;
      for (; i < op.nshards && op.shard(i).role == role; ++i)
        worst = fault::combine(worst, op.shard(i).status);
      st = role == 0 || worst < st ? worst : st;
    }
  }
  IoDoneFn done = std::move(op.done);
  if (done) done(op.total_bytes, st);
  if (op.refs == 0) ops_.release(slot);
}

/// Read-shard failover: retire `idx` without folding its failure into the
/// op and aim a fresh shard set at the next role for the same file ranges.
void Client::failover_(std::uint32_t slot, std::uint32_t idx) {
  Op& op = ops_.at(slot);
  replica::Counters& rc = op.mgr->counters();
  Shard& failed = op.shard(idx);
  const std::uint32_t next_role = failed.role + 1;
  failed.completed = true;
  ++rc.failover_shards;
  rc.failover_latency_ns +=
      static_cast<std::uint64_t>(fs_.engine().now() - failed.first_sent);
  if (!op.degraded_counted) {
    op.degraded_counted = true;
    ++rc.degraded_reads;
  }
  // The ranges leave the shard while the fresh shards are appended (which
  // may move it) and come back afterwards, keeping their storage.
  std::vector<Segment> ranges;
  ranges.swap(failed.ranges);
  const std::uint32_t base = op.nshards;
  add_role_shards(op, ranges, next_role);
  op.shard(idx).ranges.swap(ranges);
  op.pending += op.nshards - base;
  --op.pending;  // the failed shard itself is done
  for (std::uint32_t i = base; i < op.nshards; ++i) start_attempt_(slot, i);
  finish_if_done_(slot);
}

/// A shard is done for good: fold its outcome and advance the chain stage.
void Client::terminal_(std::uint32_t slot, std::uint32_t idx, fault::Status st) {
  Op& op = ops_.at(slot);
  Shard& sh = op.shard(idx);
  sh.completed = true;
  sh.status = st;
  if (op.is_write) {
    if (!fault::ok(st) && op.mgr) {
      // This role's copies of the shard's chunks never landed: tell the
      // repair manager so re-replication can restore them.
      ++op.mgr->counters().copy_write_failures;
      op.mgr->post_invalid_copies(op.file, sh.role,
                                  chunks_of_ranges(op.mgr->map(), sh.ranges));
    }
    if (op.chained) {
      const std::uint32_t role = sh.role;
      if (--op.stage_pending[role] == 0 && role + 1 < copies(op))
        start_stage_(slot, role + 1);
    }
  } else {
    // Only reads that ran out of replicas reach here with a failure.
    if (!fault::ok(st) && op.mgr) ++op.mgr->counters().out_of_replica_reads;
    op.read_status = fault::combine(op.read_status, st);
  }
  --op.pending;
  finish_if_done_(slot);
}

void Client::on_reply_(std::uint32_t slot, std::uint32_t gen, std::uint32_t idx,
                       std::uint32_t attempt, fault::Status st) {
  fault::FaultInjector* inj = fs_.fault_injector();
  Op& op = ops_.at(slot);
  // A retransmission raced the original: this reply answers a question the
  // client is no longer asking. Its call may have finished and freed the
  // record (the slot's generation moved on).
  if (ops_.generation(slot) != gen || op.shard(idx).completed ||
      op.shard(idx).attempt != attempt) {
    if (inj) ++inj->counters().client_stale_replies;
    return;
  }
  Shard& sh = op.shard(idx);
  if (sh.timeout) {
    fs_.engine().cancel(sh.timeout);
    sh.timeout = {};
  }
  if (inj && sh.attempt > 1) ++inj->counters().client_recoveries;
  // Definitive server answers (including media errors) are never resent: the
  // server already retried at the drive level. A read can still fail over
  // to a surviving replica.
  if (!op.is_write && !fault::ok(st) && sh.role + 1 < copies(op)) {
    failover_(slot, idx);
    return;
  }
  terminal_(slot, idx, st);
}

void Client::on_timeout_(std::uint32_t slot, std::uint32_t idx) {
  Op& op = ops_.at(slot);
  Shard& sh = op.shard(idx);
  sh.timeout = {};
  if (sh.completed) return;
  fault::FaultInjector& inj = *fs_.fault_injector();
  ++inj.counters().client_timeouts;
  const std::uint32_t rf = copies(op);
  if (!op.is_write && sh.role + 1 < rf &&
      sh.attempt > op.mgr->config().read_failover_after_retries) {
    // Reads give up on a silent copy quickly: surviving replicas make long
    // patience pointless.
    failover_(slot, idx);
    return;
  }
  if (sh.attempt > inj.max_retries()) {
    ++inj.counters().client_failures;
    fault::Status st = fault::Status::kTimeout;
    if (inj.server_down(sh.server)) {
      if (inj.permanently_down(sh.server, fs_.engine().now())) {
        // Fail-stop server: "gone", not "slow" — the caller (and the repair
        // manager) must not keep hoping for a restart.
        ++inj.counters().client_permanent_failures;
        st = fault::Status::kPermanentFailure;
      } else {
        st = fault::Status::kServerDown;
      }
    }
    if (!op.is_write && sh.role + 1 < rf) {
      failover_(slot, idx);
      return;
    }
    terminal_(slot, idx, st);
    return;
  }
  ++inj.counters().client_retries;
  fs_.engine().after(inj.backoff(sh.attempt),
                     sim::relocatable_fn([this, ref = OpRef(this, slot), idx] {
                       start_attempt_(ref.slot(), idx);
                     }));
}

void Client::start_attempt_(std::uint32_t slot, std::uint32_t idx) {
  Op& op = ops_.at(slot);
  Shard& sh = op.shard(idx);
  const std::uint32_t attempt = ++sh.attempt;
  sim::Engine& eng = fs_.engine();
  if (sh.first_sent < 0) sh.first_sent = eng.now();
  if (op.timed) {
    const sim::Time patience =
        fs_.fault_injector()->request_timeout(sh.req_msg + sh.reply_msg);
    sh.timeout = eng.after(patience,
                           sim::relocatable_fn([this, ref = OpRef(this, slot), idx] {
                             on_timeout_(ref.slot(), idx);
                           }));
  }
  if (op.chained && sh.role > 0) {
    // Chain hop: route through the previous role's server for the shard's
    // first chunk. The relay uses the forwarder's NIC and TX FIFO, and a
    // crashed forwarder drops the hop (the client times out and retransmits
    // through it again).
    fs_.network().send(
        node_, chain_forwarder(op, sh).node(), sh.req_msg,
        sim::relocatable_fn([this, ref = OpRef(this, slot), idx, attempt]() mutable {
          Op& op = ops_.at(ref.slot());
          const Shard& sh = op.shard(idx);
          const DataServer& fwd = chain_forwarder(op, sh);
          if (fwd.is_down()) return;
          ++op.mgr->counters().chain_forwards;
          fs_.network().send(fwd.node(), fs_.server(sh.server).node(), sh.req_msg,
                             sim::relocatable_fn(
                                 [this, ref = std::move(ref), idx, attempt] {
                                   arrive_(ref.slot(), idx, attempt);
                                 }));
        }));
    return;
  }
  fs_.network().send(node_, fs_.server(sh.server).node(), sh.req_msg,
                     sim::relocatable_fn([this, ref = OpRef(this, slot), idx, attempt] {
                       arrive_(ref.slot(), idx, attempt);
                     }));
}

DataServer& Client::chain_forwarder(const Op& op, const Shard& sh) {
  const replica::ReplicaMap& map = op.mgr->map();
  const std::uint64_t first_chunk = sh.ranges.front().offset / map.layout().unit_bytes;
  return fs_.server(map.server_of(first_chunk, sh.role - 1));
}

void Client::arrive_(std::uint32_t slot, std::uint32_t idx, std::uint32_t attempt) {
  Op& op = ops_.at(slot);
  Shard& sh = op.shard(idx);
  DataServer& srv = fs_.server(sh.server);
  req_.file = op.file;
  req_.is_write = op.is_write;
  req_.context = op.context;
  // An untimed attempt is its shard's only one, so the request takes the
  // runs (and the shard keeps the request's old storage); a timed shard
  // may be resent and sends a copy.
  if (op.timed) {
    req_.runs.assign(sh.runs.begin(), sh.runs.end());
  } else {
    req_.runs.swap(sh.runs);
  }
  // The reply's route and size ride in the closure: the call record is
  // long out of cache by the time the server finishes.
  req_.done = sim::inline_fn([this, slot, gen = ops_.generation(slot), idx, attempt,
                              srv_node = srv.node(),
                              reply_msg = sh.reply_msg](fault::Status st) {
    fs_.network().send(srv_node, node_, reply_msg,
                       sim::inline_fn([this, slot, gen, idx, attempt, st] {
                         on_reply_(slot, gen, idx, attempt, st);
                       }));
  });
  srv.handle(std::move(req_));
}

void Client::start_stage_(std::uint32_t slot, std::uint32_t role) {
  for (std::uint32_t i = 0; i < ops_.at(slot).nshards; ++i) {
    const Shard& sh = ops_.at(slot).shard(i);
    if (sh.role == role && sh.attempt == 0) start_attempt_(slot, i);
  }
}

void Client::io(FileId file, std::span<const Segment> segments, bool is_write,
                std::uint64_t context, IoDoneFn done) {
  ++calls_;
  std::uint64_t total_bytes = 0;
  for (const Segment& seg : segments) total_bytes += seg.length;
  if (total_bytes == 0) {
    fs_.engine().after(0, [done = std::move(done)]() mutable {
      done(0, fault::Status::kOk);
    });
    return;
  }
  fault::FaultInjector* inj = fs_.fault_injector();
  if (inj) ++inj->counters().client_ops_started;
  const std::uint32_t slot = ops_.acquire();
  Op& op = ops_.at(slot);
  op.timed = inj != nullptr;
  op.mgr = fs_.replicas();
  if (op.mgr != nullptr && !op.mgr->config().enabled()) op.mgr = nullptr;
  op.file = file;
  op.is_write = is_write;
  op.context = context;
  op.total_bytes = total_bytes;
  op.degraded_counted = false;
  op.done = std::move(done);
  op.read_status = fault::Status::kOk;
  op.chained = false;
  op.nshards = 0;

  if (op.mgr == nullptr) {
    // One copy: a role-0 shard per involved server, in ascending server id
    // order. The shard takes the scratch's run list and leaves its own
    // (emptied) storage behind for the next call.
    scratch_.reset(fs_.num_servers());
    for (const Segment& seg : segments)
      if (seg.length != 0) decompose_segment(fs_.layout(), seg, scratch_);
    std::sort(scratch_.touched.begin(), scratch_.touched.end());
    for (std::uint32_t s : scratch_.touched) {
      Shard& sh = op.add_shard();
      sh.server = s;
      sh.role = 0;
      sh.runs.swap(scratch_.per_server[s]);
      sh.size_messages(is_write);
    }
  } else {
    op.file_size = fs_.info(file).size;
    for (std::uint32_t r = 0; r < (is_write ? copies(op) : 1); ++r)
      add_role_shards(op, segments, r);
    if (is_write) {
      replica::Counters& rc = op.mgr->counters();
      ++rc.writes_replicated;
      for (std::uint32_t i = 0; i < op.nshards; ++i)
        if (op.shard(i).role > 0) ++rc.write_copy_shards;
      if (op.mgr->config().fanout == replica::WriteFanout::kChain) {
        op.chained = true;
        op.stage_pending.assign(copies(op), 0);
        for (std::uint32_t i = 0; i < op.nshards; ++i)
          ++op.stage_pending[op.shard(i).role];
      }
    }
  }
  op.pending = op.nshards;
  // First attempts start only after every shard exists: start_attempt_ may
  // index into the shards from re-entered engine callbacks.
  if (op.chained) {
    start_stage_(slot, 0);
    return;
  }
  // Star fan-out (and all reads): every shard goes out at once.
  for (std::uint32_t i = 0; i < op.nshards; ++i) start_attempt_(slot, i);
}

}  // namespace dpar::pfs
