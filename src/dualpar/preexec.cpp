#include "dualpar/preexec.hpp"

#include <algorithm>
#include <utility>
#include <variant>

namespace dpar::dualpar {

PreexecDriver::PState& PreexecDriver::state_for(mpi::Process& proc,
                                                const mpi::IoCall&) {
  auto it = procs_.find(proc.global_id());
  if (it == procs_.end()) {
    PState st;
    st.prog = proc.clone_program();
    st.ctx.rank = proc.rank();
    st.ctx.nprocs = proc.job().nprocs();
    st.ctx.ghost = true;
    it = procs_.emplace(proc.global_id(), std::move(st)).first;
    pump(proc, it->second);
  }
  return it->second;
}

bool PreexecDriver::covered_by_cache(const mpi::IoCall& call) const {
  if (call.segments.empty()) return false;
  for (const auto& s : call.segments)
    if (!cache_.covers(call.file, s)) return false;
  return true;
}

bool PreexecDriver::covered_by_inflight(PState& st, const mpi::IoCall& call) const {
  if (call.segments.empty()) return false;
  auto it = st.inflight.find(call.file);
  for (const auto& s : call.segments) {
    if (cache_.covers(call.file, s)) continue;
    if (it == st.inflight.end() || !it->second.covers(s.offset, s.end())) return false;
  }
  return true;
}

void PreexecDriver::io(mpi::Process& proc, const mpi::IoCall& call,
                       sim::UniqueFunction done) {
  if (env_.observer)
    env_.observer->observe(proc.job().id(), call.file, call.segments,
                           env_.fs.engine().now());
  if (call.is_write) {
    VanillaDriver::io(proc, call, std::move(done));
    return;
  }
  PState& st = state_for(proc, call);
  if (covered_by_cache(call)) {
    ++stats_.hits;
    serve_hit(proc, st, call, std::move(done));
    return;
  }
  if (covered_by_inflight(st, call)) {
    // The prefetch for this data is on the wire; park the call until the
    // fill lands.
    ++stats_.waits;
    st.waiting = &call;
    st.waiting_done = std::move(done);
    return;
  }
  // Not predicted (or prefetching lags): fetch it ourselves, as the real
  // system would.
  ++stats_.direct_misses;
  VanillaDriver::io(proc, call, std::move(done));
}

void PreexecDriver::serve_hit(mpi::Process& proc, PState& st, const mpi::IoCall& call,
                              sim::UniqueFunction done) {
  const std::uint64_t bytes = call.total_bytes();
  st.window -= std::min(st.window, bytes);  // consumed: window space freed
  for (const auto& s : call.segments) cache_.reference(call.file, s);
  if (call.segments.empty()) {
    done();
  } else {
    const std::uint32_t fan =
        fans_.open(static_cast<std::uint32_t>(call.segments.size()), std::move(done));
    for (const auto& s : call.segments) {
      cache_.transfer(call.file, s, proc.node().id(), /*to_cache=*/false,
                      sim::inline_fn([this, fan] { fans_.complete(fan); }));
    }
  }
  pump(proc, st);
}

void PreexecDriver::issue_prefetch(mpi::Process& proc, PState& st, mpi::IoCall call) {
  const std::uint64_t bytes = call.total_bytes();
  st.window += bytes;
  ++st.inflight_pieces;
  stats_.prefetch_issued_bytes += bytes;
  for (const auto& s : call.segments) st.inflight[call.file].add(s.offset, s.end());
  pfs::Client& client = env_.clients.for_node(proc.node().id());
  auto call_shared = std::make_shared<mpi::IoCall>(std::move(call));
  client.io(call_shared->file, call_shared->segments, /*is_write=*/false,
            proc.global_id(),
            [this, &proc, &st, call_shared](std::uint64_t, fault::Status fst) {
              --st.inflight_pieces;
              if (!fault::ok(fst)) {
                // Ghost I/O aborts cleanly: the data never arrived, so cache
                // nothing and release the window space it reserved (otherwise
                // repeated faults would wedge the prefetcher at full window).
                // A parked reader is rescued below by a direct fetch.
                ++stats_.prefetch_aborts;
                mpiio::note_io_status(env_, fst);
                std::uint64_t aborted = 0;
                for (const auto& s : call_shared->segments) aborted += s.length;
                st.window -= std::min(st.window, aborted);
              }
              for (const auto& s : call_shared->segments) {
                st.inflight[call_shared->file].remove(s.offset, s.end());
                if (fault::ok(fst))
                  cache_.insert(call_shared->file, s, proc.global_id(),
                                /*prefetched=*/true);
              }
              if (st.waiting && covered_by_cache(*st.waiting)) {
                const mpi::IoCall& waiting = *std::exchange(st.waiting, nullptr);
                serve_hit(proc, st, waiting, std::move(st.waiting_done));
              }
              pump(proc, st);
            });
}

void PreexecDriver::pump(mpi::Process& proc, PState& st) {
  while (st.window < params_.cache_quota && st.inflight_pieces < inflight_limit_) {
    // Issue pieces already generated before generating more.
    if (!st.piece_queue.empty()) {
      mpi::IoCall piece = std::move(st.piece_queue.front());
      st.piece_queue.pop_front();
      issue_prefetch(proc, st, std::move(piece));
      continue;
    }
    if (st.ghost_end) break;
    mpi::Op op = st.prog->next(st.ctx);
    // I/O slicing removed the computation.
    if (std::holds_alternative<mpi::OpCompute>(op)) continue;
    if (std::holds_alternative<mpi::OpIo>(op)) {
      mpi::IoCall call = std::move(std::get<mpi::OpIo>(op).call);
      if (call.is_write || call.segments.empty()) continue;
      // One prefetch request per contiguous piece, issued as generated.
      for (const auto& s : call.segments) {
        mpi::IoCall piece;
        piece.file = call.file;
        piece.segments.push_back(s);
        st.piece_queue.push_back(std::move(piece));
      }
      continue;
    }
    if (std::holds_alternative<mpi::OpBarrier>(op) ||
        std::holds_alternative<mpi::OpAllreduce>(op))
      continue;  // the prefetcher cannot synchronize
    st.ghost_end = true;
  }
  // Stalled (window full or program over) with a parked reader whose data is
  // neither cached nor on the wire: rescue it with a direct fetch.
  if (st.waiting && !covered_by_inflight(st, *st.waiting) &&
      !covered_by_cache(*st.waiting)) {
    const mpi::IoCall& waiting = *std::exchange(st.waiting, nullptr);
    ++stats_.direct_misses;
    VanillaDriver::io(proc, waiting, std::move(st.waiting_done));
  }
}

}  // namespace dpar::dualpar
