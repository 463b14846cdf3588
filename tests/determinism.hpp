// The determinism contract as a test helper: a run's observable output (a
// signature: a string, or a struct of counters compared field by field) must
// not change when the run is repeated in the same process, nor when runs
// execute concurrently on ExperimentPool threads.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <type_traits>
#include <vector>

#include "harness/experiment_pool.hpp"

namespace dpar::determinism {

/// Runs case `i` for every i in [0, n) on an ExperimentPool of `jobs`
/// threads; returns the signatures in case order.
template <class Fn, class Sig = std::invoke_result_t<const Fn&, std::size_t>>
std::vector<Sig> pooled_signatures(std::size_t n, unsigned jobs, const Fn& run) {
  std::vector<Sig> out(n);
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
template <class Fn, class Sig = std::invoke_result_t<const Fn&, std::size_t>>
std::vector<Sig> expect_deterministic(std::size_t n, const Fn& run) {
  std::vector<Sig> first(n);
  for (std::size_t i = 0; i < n; ++i) first[i] = run(i);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(first[i], run(i)) << "case " << i << ": second run in one process";
  for (unsigned jobs : {1u, 4u}) {
    const std::vector<Sig> pooled = pooled_signatures(n, jobs, run);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(first[i], pooled[i]) << "case " << i << ": ExperimentPool jobs=" << jobs;
  }
  return first;
}

}  // namespace dpar::determinism
