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
  if (piecewise_strided_ && call.segments.size() > 1) {
    const std::uint32_t slot = walks_.acquire();
    PieceWalk& w = walks_.at(slot);
    w.proc = &proc;
    w.call = call;  // copy-assign: reuses the pooled segment storage
    w.index = 0;
    w.done = std::move(done);
    issue_piece(slot);
    return;
  }
  pfs::Client& client = env_.clients.for_node(proc.node().id());
  client.io(call.file, call.segments, call.is_write, proc.global_id(),
            [this, done = std::move(done)](std::uint64_t, fault::Status st) mutable {
              note_io_status(env_, st);
              on_raw_status(st);
              done();
            });
}

void VanillaDriver::issue_piece(std::uint32_t slot) {
  PieceWalk& w = walks_.at(slot);
  if (w.index >= w.call.segments.size()) {
    sim::UniqueFunction done = std::move(w.done);
    walks_.release(slot);
    done();
    return;
  }
  pfs::Client& client = env_.clients.for_node(w.proc->node().id());
  client.io(w.call.file, std::span(&w.call.segments[w.index], 1), w.call.is_write,
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
