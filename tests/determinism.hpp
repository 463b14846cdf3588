// The determinism contract as a test helper: a run's observable output (a
// signature string) must not change when the run is repeated in the same
// process, nor when runs execute concurrently on ExperimentPool threads.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "harness/experiment_pool.hpp"

namespace dpar::determinism {

using SignatureFn = std::function<std::string(std::size_t)>;

/// Runs case `i` for every i in [0, n) on an ExperimentPool of `jobs`
/// threads; returns the signatures in case order.
inline std::vector<std::string> pooled_signatures(std::size_t n, unsigned jobs,
                                                  const SignatureFn& run) {
  std::vector<std::string> out(n);
  bench::ExperimentPool pool(jobs);
  for (std::size_t i = 0; i < n; ++i)
    pool.submit("case " + std::to_string(i), [&out, &run, i] {
      out[i] = run(i);
      return bench::ExperimentStats{};
    });
  pool.wait_all();
  return out;
}

/// Runs every case serially, again serially, and on pools of 1 and 4
/// threads, and expects all four signatures of each case to agree. Returns
/// the first serial signatures for further checks.
inline std::vector<std::string> expect_deterministic(std::size_t n,
                                                     const SignatureFn& run) {
  std::vector<std::string> first(n);
  for (std::size_t i = 0; i < n; ++i) first[i] = run(i);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(first[i], run(i)) << "case " << i << ": second run in one process";
  for (unsigned jobs : {1u, 4u}) {
    const std::vector<std::string> pooled = pooled_signatures(n, jobs, run);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(first[i], pooled[i]) << "case " << i << ": ExperimentPool jobs=" << jobs;
  }
  return first;
}

}  // namespace dpar::determinism
