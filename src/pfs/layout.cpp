#include "pfs/layout.hpp"

#include "sim/debug.hpp"

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

#if DPAR_CHECK_INVARIANTS
/// Debug invariant layer: spot-check the closed form against the frozen
/// per-chunk reference on bounded segments (the reference walks one iteration
/// per stripe, so huge segments are skipped to keep Debug runs tractable).
/// Decomposes into fresh local vectors so the check is independent of
/// whatever the caller has already accumulated in its scratch.
void spot_check_closed_form(const StripeLayout& layout, const Segment& seg) {
  const std::uint64_t stripes =
      (seg.end() - 1) / layout.unit_bytes - seg.offset / layout.unit_bytes + 1;
  if (stripes > 4096) return;
  std::vector<std::vector<ServerRun>> closed(layout.num_servers);
  std::vector<std::vector<ServerRun>> ref(layout.num_servers);
  closed_form(layout, seg, closed, nullptr);
  decompose_segment_reference(layout, seg, ref);
  DPAR_ASSERT(closed == ref,
              "striping: closed-form decomposition diverged from the frozen "
              "per-chunk reference");
}
#endif

}  // namespace

void decompose_segment(const StripeLayout& layout, const Segment& seg,
                       std::vector<std::vector<ServerRun>>& per_server) {
  per_server.resize(layout.num_servers);
  if (seg.length == 0) return;
  closed_form(layout, seg, per_server, nullptr);
  DPAR_IF_CHECKING(spot_check_closed_form(layout, seg));
}

void decompose_segment(const StripeLayout& layout, const Segment& seg,
                       DecomposeScratch& scratch) {
  if (scratch.per_server.size() < layout.num_servers)
    scratch.per_server.resize(layout.num_servers);
  if (seg.length == 0) return;
  closed_form(layout, seg, scratch.per_server, &scratch.touched);
  DPAR_IF_CHECKING(spot_check_closed_form(layout, seg));
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
