// The pre-closed-form striping decomposition, frozen verbatim as a
// differential oracle (the same pattern as the retained multimap schedulers
// in sched_reference.cpp). It walks one loop iteration per stripe chunk —
// O(bytes / unit_bytes) per segment — which the closed form in
// src/pfs/layout.cpp replaced; tests compare the two over randomized
// layouts, and benches call it directly to measure the pre-change code path.
#include "oracles/layout_reference.hpp"

namespace dpar::pfs {

void decompose_segment_reference(const StripeLayout& layout, const Segment& seg,
                                 std::vector<std::vector<ServerRun>>& per_server) {
  per_server.resize(layout.num_servers);
  std::uint64_t off = seg.offset;
  std::uint64_t remaining = seg.length;
  while (remaining > 0) {
    const std::uint64_t within = off % layout.unit_bytes;
    const std::uint64_t take = std::min(remaining, layout.unit_bytes - within);
    const std::uint32_t server = layout.server_of(off);
    const std::uint64_t local = layout.server_local_offset(off);
    auto& runs = per_server[server];
    if (!runs.empty() && runs.back().local_offset + runs.back().length == local) {
      runs.back().length += take;
    } else {
      runs.push_back(ServerRun{local, take});
    }
    off += take;
    remaining -= take;
  }
}

}  // namespace dpar::pfs
