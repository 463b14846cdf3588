#include "wl/workloads.hpp"

#include <algorithm>
#include <vector>

namespace dpar::wl {
namespace {

using mpi::IoCall;
using mpi::Op;
using mpi::OpAllreduce;
using mpi::OpBarrier;
using mpi::OpCompute;
using mpi::OpEnd;
using mpi::OpIo;
using mpi::ProgramContext;
using pfs::Segment;

/// CRTP base providing clone() via the derived copy constructor; programs
/// are plain value types so ghost forking is a deep copy.
template <class Derived>
class Cloneable : public mpi::Program {
 public:
  std::unique_ptr<mpi::Program> clone() const override {
    return std::make_unique<Derived>(static_cast<const Derived&>(*this));
  }
};

/// Per-call cadence shared by the simple loop benchmarks:
/// [compute] -> io -> [barrier] -> ... -> end.
enum class Phase { kCompute, kIo, kBarrier };

class DemoProgram final : public Cloneable<DemoProgram> {
 public:
  explicit DemoProgram(const DemoConfig& cfg) : cfg_(cfg) {}

  Op next(ProgramContext& ctx) override {
    const std::uint64_t total_segs = cfg_.file_size / cfg_.segment_size;
    const std::uint64_t base =
        call_ * std::uint64_t{cfg_.segments_per_call} * ctx.nprocs;
    if (base >= total_segs) return OpEnd{};
    if (phase_ == Phase::kCompute) {
      phase_ = Phase::kIo;
      if (cfg_.compute_per_call > 0) return OpCompute{cfg_.compute_per_call};
    }
    phase_ = Phase::kCompute;
    IoCall call = ctx.new_call(cfg_.file);
    call.is_write = cfg_.is_write;
    for (std::uint32_t k = 0; k < cfg_.segments_per_call; ++k) {
      const std::uint64_t seg = base + std::uint64_t{k} * ctx.nprocs + ctx.rank;
      if (seg >= total_segs) break;
      call.segments.push_back(Segment{seg * cfg_.segment_size, cfg_.segment_size});
    }
    ++call_;
    if (call.segments.empty()) return OpEnd{};
    return OpIo{std::move(call)};
  }

 private:
  DemoConfig cfg_;
  std::uint64_t call_ = 0;
  Phase phase_ = Phase::kCompute;
};

class MpiIoTestProgram final : public Cloneable<MpiIoTestProgram> {
 public:
  explicit MpiIoTestProgram(const MpiIoTestConfig& cfg) : cfg_(cfg) {}

  Op next(ProgramContext& ctx) override {
    const std::uint64_t offset =
        (std::uint64_t{ctx.rank} + std::uint64_t{ctx.nprocs} * call_) * cfg_.request_size;
    if (offset + cfg_.request_size > cfg_.file_size) return OpEnd{};
    switch (phase_) {
      case Phase::kCompute:
        phase_ = Phase::kIo;
        if (cfg_.compute_per_call > 0) return OpCompute{cfg_.compute_per_call};
        [[fallthrough]];
      case Phase::kIo: {
        phase_ = cfg_.barrier_every_call ? Phase::kBarrier : Phase::kCompute;
        IoCall call = ctx.new_call(cfg_.file);
        call.is_write = cfg_.is_write;
        call.collective = cfg_.collective;
        call.segments.push_back(Segment{offset, cfg_.request_size});
        if (!cfg_.barrier_every_call) ++call_;
        return OpIo{std::move(call)};
      }
      case Phase::kBarrier:
        phase_ = Phase::kCompute;
        ++call_;
        return OpBarrier{};
    }
    return OpEnd{};
  }

 private:
  MpiIoTestConfig cfg_;
  std::uint64_t call_ = 0;
  Phase phase_ = Phase::kCompute;
};

class HpioProgram final : public Cloneable<HpioProgram> {
 public:
  explicit HpioProgram(const HpioConfig& cfg) : cfg_(cfg) {}

  Op next(ProgramContext& ctx) override {
    if (region_ >= cfg_.region_count) return OpEnd{};
    if (phase_ == Phase::kCompute) {
      phase_ = Phase::kIo;
      if (cfg_.compute_per_call > 0) return OpCompute{cfg_.compute_per_call};
    }
    phase_ = Phase::kCompute;
    const std::uint64_t pitch = cfg_.region_size + cfg_.region_spacing;
    const std::uint64_t rank_base = std::uint64_t{ctx.rank} * cfg_.region_count * pitch;
    IoCall call = ctx.new_call(cfg_.file);
    call.is_write = cfg_.is_write;
    for (std::uint64_t r = 0; r < cfg_.regions_per_call && region_ < cfg_.region_count;
         ++r, ++region_) {
      call.segments.push_back(Segment{rank_base + region_ * pitch, cfg_.region_size});
    }
    return OpIo{std::move(call)};
  }

 private:
  HpioConfig cfg_;
  std::uint64_t region_ = 0;
  Phase phase_ = Phase::kCompute;
};

class IorProgram final : public Cloneable<IorProgram> {
 public:
  explicit IorProgram(const IorConfig& cfg) : cfg_(cfg) {}

  Op next(ProgramContext& ctx) override {
    const std::uint64_t scope = cfg_.file_size / ctx.nprocs;
    const std::uint64_t base = std::uint64_t{ctx.rank} * scope;
    const std::uint64_t offset = base + pos_;
    if (pos_ + cfg_.request_size > scope) return OpEnd{};
    if (phase_ == Phase::kCompute) {
      phase_ = Phase::kIo;
      if (cfg_.compute_per_call > 0) return OpCompute{cfg_.compute_per_call};
    }
    phase_ = Phase::kCompute;
    pos_ += cfg_.request_size;
    IoCall call = ctx.new_call(cfg_.file);
    call.is_write = cfg_.is_write;
    call.collective = cfg_.collective;
    call.segments.push_back(Segment{offset, cfg_.request_size});
    return OpIo{std::move(call)};
  }

 private:
  IorConfig cfg_;
  std::uint64_t pos_ = 0;
  Phase phase_ = Phase::kCompute;
};

class NoncontigProgram final : public Cloneable<NoncontigProgram> {
 public:
  explicit NoncontigProgram(const NoncontigConfig& cfg) : cfg_(cfg) {}

  Op next(ProgramContext& ctx) override {
    if (row_ >= cfg_.rows) return OpEnd{};
    if (phase_ == Phase::kCompute) {
      phase_ = Phase::kIo;
      if (cfg_.compute_per_call > 0) return OpCompute{cfg_.compute_per_call};
    }
    phase_ = Phase::kCompute;
    const std::uint64_t width = cfg_.elmt_count * 4;  // MPI_INT elements
    const std::uint64_t col = ctx.rank % cfg_.columns;
    std::uint64_t rows_per_call =
        std::max<std::uint64_t>(1, cfg_.bytes_per_call / (width * cfg_.columns));
    IoCall call = ctx.new_call(cfg_.file);
    call.is_write = cfg_.is_write;
    call.collective = cfg_.collective;
    for (std::uint64_t r = 0; r < rows_per_call && row_ < cfg_.rows; ++r, ++row_) {
      call.segments.push_back(Segment{(row_ * cfg_.columns + col) * width, width});
    }
    return OpIo{std::move(call)};
  }

 private:
  NoncontigConfig cfg_;
  std::uint64_t row_ = 0;
  Phase phase_ = Phase::kCompute;
};

class S3asimProgram final : public Cloneable<S3asimProgram> {
 public:
  explicit S3asimProgram(const S3asimConfig& cfg) : cfg_(cfg), rng_(cfg.seed) {}

  Op next(ProgramContext& ctx) override {
    if (!seeded_) {
      // Distinct deterministic stream per rank.
      rng_ = sim::Rng(cfg_.seed * 7919 + ctx.rank);
      seeded_ = true;
    }
    if (query_ >= cfg_.queries) return OpEnd{};
    const std::uint64_t frag_size = cfg_.database_size / cfg_.fragments;
    switch (step_) {
      case Step::kRead: {
        // Scan a slice of the current fragment for this query.
        const std::uint64_t len =
            std::min(frag_size, rng_.uniform_between(cfg_.min_size, cfg_.max_size));
        const std::uint64_t pos = rng_.uniform(frag_size - len + 1);
        IoCall call = ctx.new_call(cfg_.database_file);
        call.segments.push_back(Segment{fragment_ * frag_size + pos, len});
        step_ = Step::kCompute;
        return OpIo{std::move(call)};
      }
      case Step::kCompute:
        step_ = (++fragment_ < cfg_.fragments) ? Step::kRead : Step::kWrite;
        return OpCompute{cfg_.compute_per_fragment};
      case Step::kWrite: {
        // Append this query's results to the rank's region of the result file.
        const std::uint64_t len = rng_.uniform_between(cfg_.min_size, cfg_.max_size);
        const std::uint64_t region = cfg_.queries * cfg_.max_size;
        IoCall call = ctx.new_call(cfg_.result_file);
        call.is_write = true;
        call.segments.push_back(
            Segment{std::uint64_t{ctx.rank} * region + write_pos_, len});
        write_pos_ += len;
        fragment_ = 0;
        ++query_;
        step_ = Step::kRead;
        return OpIo{std::move(call)};
      }
    }
    return OpEnd{};
  }

 private:
  enum class Step { kRead, kCompute, kWrite };
  S3asimConfig cfg_;
  sim::Rng rng_;
  bool seeded_ = false;
  std::uint32_t query_ = 0;
  std::uint32_t fragment_ = 0;
  std::uint64_t write_pos_ = 0;
  Step step_ = Step::kRead;
};

class BtioProgram final : public Cloneable<BtioProgram> {
 public:
  explicit BtioProgram(const BtioConfig& cfg) : cfg_(cfg) {}

  Op next(ProgramContext& ctx) override {
    const std::uint64_t step_bytes = cfg_.total_bytes / cfg_.write_steps;
    const std::uint64_t rows_per_step = step_bytes / cfg_.row_bytes;
    const std::uint64_t cell = std::max<std::uint64_t>(8, cfg_.row_bytes / ctx.nprocs);
    // Group a handful of rows per I/O call: ROMIO flattens the datatype but
    // each cell still reaches the servers as its own tiny request.
    const std::uint64_t rows_per_call = 16;

    if (step_ >= cfg_.write_steps) {
      if (!cfg_.read_back || pass_ == 2) return OpEnd{};
      pass_ = 1;  // verification pass re-reads the solution file
    }
    switch (phase_) {
      case Phase::kCompute:
        phase_ = Phase::kIo;
        if (pass_ == 0 && row_ == 0 && cfg_.compute_per_step > 0)
          return OpCompute{cfg_.compute_per_step};
        [[fallthrough]];
      case Phase::kIo: {
        IoCall call = ctx.new_call(cfg_.file);
        call.is_write = (pass_ == 0);
        call.collective = cfg_.collective;
        const std::uint64_t step_base = step_ * step_bytes;
        call.segments.reserve(rows_per_call);
        for (std::uint64_t r = 0; r < rows_per_call && row_ < rows_per_step;
             ++r, ++row_) {
          call.segments.push_back(
              Segment{step_base + row_ * cfg_.row_bytes + ctx.rank * cell, cell});
        }
        if (row_ >= rows_per_step) {
          row_ = 0;
          ++step_;
          phase_ = Phase::kBarrier;
        } else {
          phase_ = Phase::kIo;
        }
        if (step_ >= cfg_.write_steps && pass_ == 1) pass_ = 2;
        if (call.segments.empty()) return OpEnd{};
        return OpIo{std::move(call)};
      }
      case Phase::kBarrier:
        phase_ = Phase::kCompute;
        if (step_ >= cfg_.write_steps && pass_ == 1) {
          step_ = 0;  // restart the step counter for the read-back pass
        }
        if (cfg_.allreduce_bytes > 0) return OpAllreduce{cfg_.allreduce_bytes};
        return OpBarrier{};
    }
    return OpEnd{};
  }

 private:
  BtioConfig cfg_;
  std::uint64_t step_ = 0;
  std::uint64_t row_ = 0;
  int pass_ = 0;  // 0 = write phase, 1 = read-back, 2 = done
  Phase phase_ = Phase::kCompute;
};

class DependentProgram final : public Cloneable<DependentProgram> {
 public:
  explicit DependentProgram(const DependentConfig& cfg) : cfg_(cfg) {}

  Op next(ProgramContext& ctx) override {
    if (issued_ >= cfg_.requests) return OpEnd{};
    if (phase_ == Phase::kCompute) {
      phase_ = Phase::kIo;
      if (cfg_.compute_per_call > 0) return OpCompute{cfg_.compute_per_call};
    }
    phase_ = Phase::kCompute;
    const std::uint64_t slots = cfg_.file_size / cfg_.request_size;
    std::uint64_t slot;
    if (issued_ == 0) {
      slot = ctx.rank % slots;
    } else if (ctx.last_read_value.has_value()) {
      // The real data drives the next address.
      slot = *ctx.last_read_value % slots;
    } else {
      // Ghost run: no data available; guess sequentially — and be wrong.
      slot = (prev_slot_ + 1) % slots;
    }
    prev_slot_ = slot;
    ++issued_;
    IoCall call = ctx.new_call(cfg_.file);
    call.segments.push_back(Segment{slot * cfg_.request_size, cfg_.request_size});
    return OpIo{std::move(call)};
  }

 private:
  DependentConfig cfg_;
  std::uint64_t issued_ = 0;
  std::uint64_t prev_slot_ = 0;
  Phase phase_ = Phase::kCompute;
};

}  // namespace

std::unique_ptr<mpi::Program> make_demo(const DemoConfig& cfg) {
  return std::make_unique<DemoProgram>(cfg);
}
std::unique_ptr<mpi::Program> make_mpi_io_test(const MpiIoTestConfig& cfg) {
  return std::make_unique<MpiIoTestProgram>(cfg);
}
std::unique_ptr<mpi::Program> make_hpio(const HpioConfig& cfg) {
  return std::make_unique<HpioProgram>(cfg);
}
std::unique_ptr<mpi::Program> make_ior(const IorConfig& cfg) {
  return std::make_unique<IorProgram>(cfg);
}
std::unique_ptr<mpi::Program> make_noncontig(const NoncontigConfig& cfg) {
  return std::make_unique<NoncontigProgram>(cfg);
}
std::unique_ptr<mpi::Program> make_s3asim(const S3asimConfig& cfg) {
  return std::make_unique<S3asimProgram>(cfg);
}
std::unique_ptr<mpi::Program> make_btio(const BtioConfig& cfg) {
  return std::make_unique<BtioProgram>(cfg);
}
std::unique_ptr<mpi::Program> make_dependent(const DependentConfig& cfg) {
  return std::make_unique<DependentProgram>(cfg);
}

}  // namespace dpar::wl
