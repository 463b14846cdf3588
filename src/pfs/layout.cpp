#include "pfs/layout.hpp"

namespace dpar::pfs {

namespace {

/// Closed-form emitter. Within one contiguous segment, server `srv` holds the
/// arithmetic progression of stripes k0, k0+S, ..., k1 (S = num_servers), and
/// consecutive stripes of one server map to adjacent units in its local
/// address space — so the server's share of the segment is exactly one
/// contiguous local run [begin, end), clipped at the segment's first and last
/// stripe. Emitting that run per involved server is O(min(stripes, S)),
/// independent of the segment's byte length.
void closed_form(const StripeLayout& layout, const Segment& seg,
                 std::vector<std::vector<ServerRun>>& per_server,
                 std::vector<std::uint32_t>* touched) {
  const std::uint64_t unit = layout.unit_bytes;
  const std::uint64_t nserv = layout.num_servers;
  const std::uint64_t first = seg.offset / unit;
  const std::uint64_t last = (seg.end() - 1) / unit;
  const std::uint64_t involved = std::min(last - first + 1, nserv);
  for (std::uint64_t i = 0; i < involved; ++i) {
    const std::uint64_t k0 = first + i;  // server's first stripe in the segment
    const std::uint64_t k1 = k0 + ((last - k0) / nserv) * nserv;  // its last
    const auto srv = static_cast<std::uint32_t>(k0 % nserv);
    const std::uint64_t begin =
        (k0 / nserv) * unit + (k0 == first ? seg.offset % unit : 0);
    const std::uint64_t end =
        (k1 / nserv) * unit + (k1 == last ? (seg.end() - 1) % unit + 1 : unit);
    auto& runs = per_server[srv];
    if (!runs.empty() && runs.back().local_offset + runs.back().length == begin) {
      runs.back().length += end - begin;
    } else {
      if (touched && runs.empty()) touched->push_back(srv);
      runs.push_back(ServerRun{begin, end - begin});
    }
  }
}

}  // namespace

void decompose_segment(const StripeLayout& layout, const Segment& seg,
                       std::vector<std::vector<ServerRun>>& per_server) {
  per_server.resize(layout.num_servers);
  if (seg.length == 0) return;
  closed_form(layout, seg, per_server, nullptr);
}

void decompose_segment(const StripeLayout& layout, const Segment& seg,
                       DecomposeScratch& scratch) {
  if (scratch.per_server.size() < layout.num_servers)
    scratch.per_server.resize(layout.num_servers);
  if (seg.length == 0) return;
  closed_form(layout, seg, scratch.per_server, &scratch.touched);
}

void DecomposeScratch::reset(std::uint32_t num_servers) {
  if (per_server.size() != num_servers) {
    per_server.clear();
    per_server.resize(num_servers);
  } else {
    for (std::uint32_t s : touched) per_server[s].clear();
  }
  touched.clear();
}

}  // namespace dpar::pfs
