// Writing your own workload: implement mpi::Program.
//
// A program is a cloneable op stream — compute bursts, I/O calls, barriers.
// Cloneability is what lets DualPar fork ghost pre-executions, so keep all
// state in copyable members. This example builds a two-phase "stencil"
// application: each rank reads a halo-exchange-style block region, computes,
// and appends a per-rank result strip; then everyone barriers and repeats.
//
//   $ ./custom_workload
#include <cstdio>
#include <memory>

#include "harness/testbed.hpp"
#include "mpi/program.hpp"

using namespace dpar;

namespace {

class StencilProgram final : public mpi::Program {
 public:
  StencilProgram(pfs::FileId grid, pfs::FileId out, std::uint64_t block_bytes,
                 std::uint32_t iterations)
      : grid_(grid), out_(out), block_(block_bytes), iterations_(iterations) {}

  mpi::Op next(mpi::ProgramContext& ctx) override {
    if (iter_ >= iterations_) return mpi::OpEnd{};
    switch (step_++) {
      case 0: {  // read own block plus one-row halos from the neighbours
        mpi::IoCall call = ctx.new_call(grid_);  // reuses the last call's storage
        const std::uint64_t base = (iter_ * ctx.nprocs + ctx.rank) * block_;
        call.segments.push_back(pfs::Segment{base, block_});
        if (ctx.rank > 0)
          call.segments.push_back(pfs::Segment{base - 4096, 4096});
        if (ctx.rank + 1 < ctx.nprocs)
          call.segments.push_back(pfs::Segment{base + block_, 4096});
        return mpi::OpIo{std::move(call)};
      }
      case 1:  // the stencil sweep itself
        return mpi::OpCompute{sim::msec(3)};
      case 2: {  // append this iteration's result strip
        mpi::IoCall call = ctx.new_call(out_);
        call.is_write = true;
        call.segments.push_back(pfs::Segment{
            (iter_ * ctx.nprocs + ctx.rank) * (block_ / 4), block_ / 4});
        return mpi::OpIo{std::move(call)};
      }
      default:  // synchronize and advance to the next iteration
        step_ = 0;
        ++iter_;
        return mpi::OpBarrier{};
    }
  }

  std::unique_ptr<mpi::Program> clone() const override {
    return std::make_unique<StencilProgram>(*this);  // plain value copy
  }

 private:
  pfs::FileId grid_, out_;
  std::uint64_t block_;
  std::uint32_t iterations_;
  std::uint32_t iter_ = 0;
  int step_ = 0;
};

double run(harness::Testbed& tb, mpi::IoDriver& driver, dualpar::Policy policy) {
  const std::uint32_t procs = 32, iters = 24;
  const std::uint64_t block = 256 * 1024;
  const pfs::FileId grid =
      tb.create_file("grid.dat", std::uint64_t{procs} * iters * block + (1 << 20));
  const pfs::FileId out =
      tb.create_file("result.dat", std::uint64_t{procs} * iters * block / 4 + (1 << 20));
  mpi::Job& job = tb.add_job("stencil", procs, driver,
                             [&](std::uint32_t) {
                               return std::make_unique<StencilProgram>(grid, out, block,
                                                                       iters);
                             },
                             policy);
  tb.run();
  return tb.job_throughput_mbs(job);
}

}  // namespace

int main() {
  std::printf("custom_workload: a user-defined stencil Program under three "
              "MPI-IO variants\n\n");
  {
    harness::Testbed tb;
    std::printf("  vanilla MPI-IO : %7.1f MB/s\n",
                run(tb, tb.vanilla(), dualpar::Policy::kForcedNormal));
  }
  {
    harness::Testbed tb;
    std::printf("  pre-exec (S2)  : %7.1f MB/s\n",
                run(tb, tb.preexec(), dualpar::Policy::kForcedNormal));
  }
  {
    harness::Testbed tb;
    std::printf("  DualPar        : %7.1f MB/s\n",
                run(tb, tb.dualpar(), dualpar::Policy::kForcedDataDriven));
  }
  std::printf("\nImplementing Program is all it takes: DualPar's ghost "
              "pre-execution works on any cloneable op stream, no source "
              "changes to the 'application' logic.\n");
  return 0;
}
