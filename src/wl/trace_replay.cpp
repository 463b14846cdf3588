#include "wl/trace_replay.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace dpar::wl {
namespace {

TraceOp::Kind kind_of(const std::string& s) {
  if (s == "compute") return TraceOp::Kind::kCompute;
  if (s == "read") return TraceOp::Kind::kRead;
  if (s == "write") return TraceOp::Kind::kWrite;
  if (s == "barrier") return TraceOp::Kind::kBarrier;
  throw std::invalid_argument("trace: unknown op '" + s + "'");
}

const char* kind_name(TraceOp::Kind k) {
  switch (k) {
    case TraceOp::Kind::kCompute: return "compute";
    case TraceOp::Kind::kRead: return "read";
    case TraceOp::Kind::kWrite: return "write";
    case TraceOp::Kind::kBarrier: return "barrier";
  }
  return "?";
}

class TraceReplayProgram final : public mpi::Program {
 public:
  TraceReplayProgram(std::vector<TraceOp> ops, std::uint32_t rank)
      : ops_(std::move(ops)), rank_(rank) {}

  mpi::Op next(mpi::ProgramContext& ctx) override {
    while (pos_ < ops_.size() && ops_[pos_].rank != rank_) ++pos_;
    if (pos_ >= ops_.size()) return mpi::OpEnd{};
    const TraceOp& op = ops_[pos_++];
    switch (op.kind) {
      case TraceOp::Kind::kCompute:
        return mpi::OpCompute{op.duration};
      case TraceOp::Kind::kBarrier:
        return mpi::OpBarrier{};
      case TraceOp::Kind::kRead:
      case TraceOp::Kind::kWrite: {
        mpi::IoCall call = ctx.new_call(op.file);
        call.is_write = (op.kind == TraceOp::Kind::kWrite);
        call.segments.push_back(pfs::Segment{op.offset, op.length});
        return mpi::OpIo{std::move(call)};
      }
    }
    return mpi::OpEnd{};
  }

  std::unique_ptr<mpi::Program> clone() const override {
    return std::make_unique<TraceReplayProgram>(*this);
  }

 private:
  std::vector<TraceOp> ops_;
  std::uint32_t rank_;
  std::size_t pos_ = 0;
};

}  // namespace

std::vector<TraceOp> parse_trace_csv(const std::string& text) {
  std::vector<TraceOp> ops;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.rfind("rank,", 0) == 0) continue;  // header
    std::istringstream row(line);
    std::string cell;
    std::vector<std::string> cells;
    while (std::getline(row, cell, ',')) cells.push_back(cell);
    if (cells.size() != 6)
      throw std::invalid_argument("trace: expected 6 columns, got '" + line + "'");
    TraceOp op;
    op.rank = static_cast<std::uint32_t>(std::stoul(cells[0]));
    op.kind = kind_of(cells[1]);
    op.file = static_cast<pfs::FileId>(std::stoul(cells[2]));
    op.offset = std::stoull(cells[3]);
    op.length = std::stoull(cells[4]);
    op.duration = sim::usec(std::stoll(cells[5]));
    ops.push_back(op);
  }
  return ops;
}

std::string format_trace_csv(const std::vector<TraceOp>& ops) {
  std::string out = "rank,op,file,offset,length,duration_us\n";
  char buf[160];
  for (const TraceOp& op : ops) {
    std::snprintf(buf, sizeof buf, "%u,%s,%u,%llu,%llu,%lld\n", op.rank,
                  kind_name(op.kind), op.file,
                  static_cast<unsigned long long>(op.offset),
                  static_cast<unsigned long long>(op.length),
                  static_cast<long long>(op.duration / sim::kNsPerUs));
    out += buf;
  }
  return out;
}

std::unique_ptr<mpi::Program> make_trace_replay(std::vector<TraceOp> ops,
                                                std::uint32_t rank) {
  return std::make_unique<TraceReplayProgram>(std::move(ops), rank);
}

}  // namespace dpar::wl
