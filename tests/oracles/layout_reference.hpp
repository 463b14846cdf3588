// Frozen striping oracle: the per-chunk decomposition that the closed form
// in pfs/layout.cpp replaced (layout_reference.cpp).
#pragma once

#include <vector>

#include "pfs/layout.hpp"

namespace dpar::pfs {

/// The pre-closed-form decomposition, one loop iteration per stripe chunk,
/// frozen verbatim as the differential oracle. Produces byte-identical runs.
void decompose_segment_reference(const StripeLayout& layout, const Segment& seg,
                                 std::vector<std::vector<ServerRun>>& per_server);

}  // namespace dpar::pfs
