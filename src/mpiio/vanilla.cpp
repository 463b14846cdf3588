#include "mpiio/vanilla.hpp"

#include <cstddef>
#include <span>
#include <utility>

namespace dpar::mpiio {

void VanillaDriver::io(mpi::Process& proc, const mpi::IoCall& call,
                       sim::UniqueFunction done) {
  if (env_.observer)
    env_.observer->observe(proc.job().id(), call.file, call.segments,
                           env_.fs.engine().now());
  raw_io(proc, call, std::move(done));
}

void VanillaDriver::raw_io(mpi::Process& proc, const mpi::IoCall& call,
                           sim::UniqueFunction done) {
  const std::uint32_t slot = walks_.acquire();
  PieceWalk& w = walks_.at(slot);
  w.proc = &proc;
  w.call = &call;
  w.index = 0;
  w.done = std::move(done);
  if (call.segments.size() > 1) {
    issue_piece(slot);
    return;
  }
  // One request for the whole call; a zero-segment call completes through
  // the client's zero-delay event.
  pfs::Client& client = env_.clients.for_node(proc.node().id());
  client.io(call.file, call.segments, call.is_write, proc.global_id(),
            sim::inline_fn([this, slot](std::uint64_t, fault::Status st) {
              note_io_status(env_, st);
              on_raw_status(st);
              finish_walk(slot);
            }));
}

void VanillaDriver::finish_walk(std::uint32_t slot) {
  sim::UniqueFunction done = std::move(walks_.at(slot).done);
  walks_.release(slot);
  done();
}

void VanillaDriver::issue_piece(std::uint32_t slot) {
  PieceWalk& w = walks_.at(slot);
  const mpi::IoCall& call = *w.call;
  if (w.index >= call.segments.size()) {
    finish_walk(slot);
    return;
  }
  pfs::Client& client = env_.clients.for_node(w.proc->node().id());
  client.io(call.file, std::span(&call.segments[w.index], 1), call.is_write,
            w.proc->global_id(),
            sim::inline_fn([this, slot](std::uint64_t, fault::Status st) {
              // A failed piece is reported and the walk continues: the
              // application sees the error but the benchmark keeps running.
              note_io_status(env_, st);
              on_raw_status(st);
              ++walks_.at(slot).index;
              issue_piece(slot);
            }));
}

}  // namespace dpar::mpiio
