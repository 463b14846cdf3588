// Perf self-accounting for the bench suite: a mergeable machine-readable
// JSON report (BENCH_sim_core.json) so the simulator's perf trajectory is
// tracked run-over-run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dpar::metrics {

/// One experiment row of the JSON report.
struct PerfEntry {
  std::string label;
  double value = 0;
  std::uint64_t events = 0;
  double wall_s = 0;
};

/// Merge `bench_name`'s section into the perf JSON at `path`, preserving the
/// sections other bench binaries wrote. The file keeps one line per bench
/// (see perf.cpp for the exact shape), so the merge is a line-level
/// read-modify-write and never needs a general JSON parser. The merge runs
/// under an exclusive flock on `<path>.lock` and publishes via write-to-temp
/// + atomic rename, so concurrent bench processes neither clobber each
/// other's sections nor expose a torn file.
/// `suite_wall_s` is start-to-finish wall time; `jobs` the thread count.
/// Returns false on I/O failure.
bool write_bench_perf_json(const std::string& path, const std::string& bench_name,
                           const std::vector<PerfEntry>& entries,
                           double suite_wall_s, unsigned jobs);

}  // namespace dpar::metrics
