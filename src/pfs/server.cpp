#include "pfs/server.hpp"

#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fault/injector.hpp"

namespace dpar::pfs {

DataServer::DataServer(sim::Engine& eng, net::NodeId node,
                       std::unique_ptr<disk::BlockDevice> dev, ServerParams params)
    : eng_(eng),
      node_(node),
      dev_(std::move(dev)),
      params_(params),
      cache_(params.page_cache),
      service_(eng) {}

void DataServer::allocate(FileId file, std::uint64_t bytes) {
  if (extents_.count(file) != 0) return;  // idempotent
  const std::uint64_t sectors = disk::bytes_to_sectors(bytes);
  Extent e{next_free_sector_, sectors};
  next_free_sector_ += sectors + disk::bytes_to_sectors(kInterFileGapBytes);
  if (next_free_sector_ > dev_->capacity_sectors())
    throw std::runtime_error("DataServer: disk full");
  extents_.emplace(file, e);
}

void DataServer::set_fault_injector(fault::FaultInjector* inj) {
  injector_ = inj;
  dev_->set_fault_injector(inj, node_);
}

void DataServer::crash() {
  if (down_) return;
  down_ = true;
  ++epoch_;
  if (injector_) injector_->note_server_state(node_, true);
}

void DataServer::restart() {
  if (!down_) return;
  down_ = false;
  if (injector_) injector_->note_server_state(node_, false);
}

void DataServer::deliver_reply(ReplyFn done, fault::Status st, std::uint64_t epoch) {
  if (epoch != epoch_) {
    // The server crashed after accepting this request: its queued work is
    // gone and the reply is never sent. The client's timeout fires instead.
    if (injector_) ++injector_->counters().server_lost_completions;
    return;
  }
  if (done) done(st);
}

void DataServer::handle(ServerIoRequest&& req) {
  if (down_) {
    // A dead server answers nothing: the request's callback is destroyed
    // unfired and the client times out.
    if (injector_) ++injector_->counters().server_refused_requests;
    req.done = {};
    return;
  }
  ++requests_;
  sim::Time cpu =
      params_.request_base_cost + params_.per_run_cost * static_cast<sim::Time>(req.runs.size());
  // Request handling passes through the server's service thread first, then
  // fans out to the disk.
  const std::uint32_t slot = ctxs_.acquire();
  IoCtx& ctx = ctxs_.at(slot);
  std::swap(ctx.req, req);
  ctx.outstanding = 0;
  ctx.status = fault::Status::kOk;
  if (injector_) {
    cpu += injector_->server_stall(node_);
    ctx.epoch = epoch_;
  }
  service_.submit(cpu, sim::inline_fn([this, slot] { serve_(slot); }));
}

void DataServer::complete_run_(std::uint32_t slot, fault::Status st) {
  IoCtx& ctx = ctxs_.at(slot);
  ctx.status = fault::combine(ctx.status, st);
  if (--ctx.outstanding != 0) return;
  ReplyFn done = std::move(ctx.req.done);
  const std::uint64_t epoch = ctx.epoch;
  const fault::Status out = ctx.status;
  // The run vector returns to a client with the next request (handle()
  // swaps it): keep it only if it is not burst-sized.
  sim::clear_bounded(ctx.req.runs);
  ctxs_.release(slot);
  if (injector_) {
    deliver_reply(std::move(done), out, epoch);
  } else if (done) {
    done(out);
  }
}

void DataServer::serve_(std::uint32_t slot) {
  IoCtx& ctx = ctxs_.at(slot);
  auto it = extents_.find(ctx.req.file);
  if (it == extents_.end())
    throw std::runtime_error("DataServer::handle: unknown file");
  const Extent extent = it->second;
  const FileId file = ctx.req.file;
  const bool is_write = ctx.req.is_write;

  if (is_write) {
    bytes_written_ += ctx.req.total_bytes();
  } else {
    bytes_read_ += ctx.req.total_bytes();
  }

  if (ctx.req.runs.empty()) {
    ctx.outstanding = 1;
    complete_run_(slot);
    return;
  }
  // The +1 keeps the record alive through the loop even if every run is a
  // cache hit (the matching complete_run_ is below, after the last submit);
  // nothing between here and there fires engine events, so completion order
  // is unchanged.
  ctx.outstanding = ctx.req.runs.size() + 1;
  // Each miss goes to the disk as its own request. Runs that are exactly
  // adjacent on this server's extent (a striped client segment lands here
  // as a train of locally-contiguous chunks) coalesce into one disk
  // request, so the train costs one completion event per (server, request)
  // span instead of one per chunk. The trailing miss is held back while it
  // can still grow; its byte span and merged-run count feed the coalesced
  // cache insert and fan-in.
  disk::Request tail;
  std::uint64_t tail_offset = 0, tail_end = 0, tail_runs = 0;
  auto submit_tail = [this, slot, file, &tail, &tail_offset, &tail_end, &tail_runs] {
    if (tail_runs == 0) return;
    const std::uint64_t off = tail_offset, len = tail_end - tail_offset,
                        n = tail_runs;
    tail.done = sim::inline_fn([this, slot, file, off, len, n](fault::Status st) {
      // A failed span caches nothing: the sectors never produced data.
      if (cache_.enabled() && fault::ok(st)) cache_.insert(file, off, len);
      // One decrement per coalesced run keeps the fan-in count identical
      // to the uncoalesced layout.
      for (std::uint64_t i = 0; i < n; ++i) complete_run_(slot, st);
    });
    dev_->submit(std::move(tail));
    tail_runs = 0;
  };
  for (const ServerRun& run : ctx.req.runs) {
    // Page cache: resident reads skip the disk entirely; misses may be
    // extended by a read-ahead window when they continue a sequential
    // stream. Writes go through to the disk and populate the cache.
    std::uint64_t length = run.length;
    if (!is_write && cache_.enabled()) {
      if (cache_.covers(file, run.local_offset, run.length)) {
        cache_.note_hit();
        complete_run_(slot);
        continue;
      }
      cache_.note_miss();
      const std::uint64_t extent_bytes = extent.sectors * disk::kSectorBytes;
      std::uint64_t ra = cache_.readahead_hint(file, run.local_offset, run.length);
      if (run.local_offset + length + ra > extent_bytes)
        ra = extent_bytes > run.local_offset + length
                 ? extent_bytes - run.local_offset - length
                 : 0;
      length += ra;
    }
    if (!is_write) disk_bytes_read_ += length;
    const std::uint64_t lba = extent.base_lba + run.local_offset / disk::kSectorBytes;
    const std::uint64_t sectors = disk::bytes_to_sectors(length);
    if (lba + sectors > extent.base_lba + extent.sectors + 8)
      throw std::runtime_error("DataServer::handle: run beyond extent");
    if (tail_runs > 0 && tail.lba + tail.sectors == lba && tail_end == run.local_offset) {
      // Contiguous with the previous miss: grow that disk request in place.
      tail.sectors += static_cast<std::uint32_t>(sectors);
      tail_end = run.local_offset + length;
      ++tail_runs;
      continue;
    }
    submit_tail();
    tail = disk::Request{};
    tail.id = next_req_id_++;
    tail.lba = lba;
    tail.sectors = static_cast<std::uint32_t>(sectors);
    tail.is_write = is_write;
    tail.context = params_.single_disk_context ? 0 : ctx.req.context;
    tail_offset = run.local_offset;
    tail_end = run.local_offset + length;
    tail_runs = 1;
  }
  submit_tail();
  complete_run_(slot);
}

}  // namespace dpar::pfs
