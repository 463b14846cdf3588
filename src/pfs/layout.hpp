// File striping math (PVFS2-style round-robin striping, 64 KB default unit).
#pragma once

#include <cstdint>
#include <vector>

#include "disk/request.hpp"

namespace dpar::pfs {

using FileId = std::uint32_t;

/// A contiguous byte range of a file.
struct Segment {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t end() const { return offset + length; }
  friend bool operator==(const Segment&, const Segment&) = default;
};

struct StripeLayout {
  std::uint64_t unit_bytes = 64 * 1024;
  std::uint32_t num_servers = 1;

  std::uint64_t stripe_of(std::uint64_t offset) const { return offset / unit_bytes; }
  std::uint32_t server_of(std::uint64_t offset) const {
    return static_cast<std::uint32_t>(stripe_of(offset) % num_servers);
  }
  /// Byte offset within the owning server's portion of the file. Consecutive
  /// stripes kept by the same server are contiguous there, which preserves
  /// the file-level/disk-level address correspondence the paper relies on.
  std::uint64_t server_local_offset(std::uint64_t offset) const {
    const std::uint64_t stripe = stripe_of(offset);
    return (stripe / num_servers) * unit_bytes + offset % unit_bytes;
  }
  /// Bytes a server stores for a file of `size` bytes.
  std::uint64_t server_share(std::uint32_t server, std::uint64_t size) const {
    const std::uint64_t full_rounds = size / (unit_bytes * num_servers);
    std::uint64_t share = full_rounds * unit_bytes;
    std::uint64_t rest = size % (unit_bytes * num_servers);
    const std::uint64_t skip = std::uint64_t{server} * unit_bytes;
    if (rest > skip) share += std::min(unit_bytes, rest - skip);
    return share;
  }
};

/// One contiguous byte run in a server's local address space for a file.
struct ServerRun {
  std::uint64_t local_offset = 0;
  std::uint64_t length = 0;
  friend bool operator==(const ServerRun&, const ServerRun&) = default;
};

/// Reusable scratch for repeated decompositions on one client. Holds the
/// per-server run lists plus the ascending-insertion list of servers that
/// actually received runs, so the send path iterates O(involved servers)
/// instead of O(num_servers) and the outer vector is allocated once per
/// client, not once per I/O call.
struct DecomposeScratch {
  std::vector<std::vector<ServerRun>> per_server;
  std::vector<std::uint32_t> touched;  ///< servers with runs, first-touch order

  /// Prepare for a new decomposition over `num_servers` servers: clears the
  /// previously touched run lists (O(touched), not O(servers)) and keeps
  /// every vector's capacity for reuse.
  void reset(std::uint32_t num_servers);
};

/// Decompose a file segment into per-server runs, coalescing runs that are
/// contiguous in a server's local space. Closed form: each involved server's
/// bytes within one contiguous segment form a single contiguous local run
/// (interior stripes of one server map to adjacent local units), so the
/// decomposition emits O(min(stripes, servers)) runs directly instead of
/// walking one iteration per stripe chunk.
void decompose_segment(const StripeLayout& layout, const Segment& seg,
                       std::vector<std::vector<ServerRun>>& per_server);

/// Scratch-based variant used by the client send path: additionally records
/// which servers received their first run in `scratch.touched`.
void decompose_segment(const StripeLayout& layout, const Segment& seg,
                       DecomposeScratch& scratch);

}  // namespace dpar::pfs
