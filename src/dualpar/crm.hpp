// CRM — cache and request management (§IV-D): pure planning logic for
// turning the requests collected from all of a program's processes into an
// optimized issue order. Kept side-effect free so the transformations are
// directly testable.
#pragma once

#include <cstdint>
#include <vector>

#include "pfs/layout.hpp"

namespace dpar::dualpar {

struct BatchOptions {
  bool sort = true;
  bool merge = true;
  std::uint64_t hole_fill_max = 64 * 1024;  ///< 0 disables hole absorption
};

/// Build a read batch: sort by offset, merge adjacent/overlapping segments,
/// and absorb holes smaller than hole_fill_max ("the data in the holes are
/// added to the requests... this further helps form larger requests").
std::vector<pfs::Segment> build_read_batch(std::vector<pfs::Segment> segments,
                                           const BatchOptions& opt);

/// Plan for flushing dirty data: contiguous write runs (small holes merged
/// in), plus the hole reads that must complete first so hole bytes can be
/// written back unchanged ("for writes the data in the holes will be filled
/// by additional reads before writing to disks").
struct WritebackPlan {
  std::vector<pfs::Segment> hole_reads;
  std::vector<pfs::Segment> writes;
  std::uint64_t dirty_bytes = 0;
  std::uint64_t hole_bytes = 0;
};

WritebackPlan plan_writeback(std::vector<pfs::Segment> dirty, const BatchOptions& opt);

/// Average adjacent distance (bytes) between sorted segments — the client
/// side ReqDist metric (§IV-B) over one observation slot. Once the offsets
/// are sorted the adjacent differences telescope to max - min, so this is a
/// single min/max pass; no copy, no sort.
double mean_adjacent_distance(const std::vector<pfs::Segment>& segments);

/// The same metric from an offset multiset's extremes and size (0 below two
/// offsets). Every term and partial sum of the sorted form is an integer
/// below 2^53, so the result has the same bits as summing the differences.
double mean_adjacent_distance(std::uint64_t min_offset, std::uint64_t max_offset,
                              std::uint64_t count);

}  // namespace dpar::dualpar
