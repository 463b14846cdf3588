// Steady-state allocation test for the request path.
//
// This binary replaces the global operator new/delete with counting versions,
// which is why it is its own executable (ctest label `alloc`) instead of part
// of dpar_tests. It pins the claim of sim/engine.hpp and sim/func.hpp: once
// the pools have grown to a run's working set, scheduling, firing and
// cancelling events allocates nothing, and a fault-free request costs a small
// fraction of one allocation. Sanitizers interpose the allocator themselves,
// so sanitized builds skip the checks.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "harness/testbed.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "wl/workloads.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DPAR_ALLOC_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define DPAR_ALLOC_SANITIZED 1
#endif
#endif

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// A replaced global allocator has to sit on the C allocator, hence the
// no-malloc exemptions below.
#ifndef DPAR_ALLOC_SANITIZED
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  // NOLINTNEXTLINE(cppcoreguidelines-no-malloc)
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// NOLINTNEXTLINE(cppcoreguidelines-no-malloc)
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
#endif

namespace dpar {
namespace {

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }

#ifdef DPAR_ALLOC_SANITIZED
#define DPAR_SKIP_IF_SANITIZED() GTEST_SKIP() << "sanitizers replace the allocator"
#else
#define DPAR_SKIP_IF_SANITIZED() (void)0
#endif

/// Timer churn: a fixed population of self-re-arming timers, with a third of
/// the steps cancelling and re-arming a random one. Callbacks capture two
/// words, like the request path's `{this, slot}` closures.
struct Churn {
  static constexpr std::size_t kTimers = 64;
  sim::Engine eng;
  sim::Rng rng{7};
  std::vector<sim::EventId> ids = std::vector<sim::EventId>(kTimers);
  std::uint64_t fired = 0;

  void arm(std::size_t i) {
    ids[i] = eng.after(1 + static_cast<sim::Time>(rng.uniform(1'000'000)), [this, i] {
      ++fired;
      arm(i);
    });
  }

  void steps(std::uint64_t n) {
    for (std::uint64_t s = 0; s < n; ++s) {
      eng.step();
      if (s % 3 == 0) {
        const std::size_t i = rng.uniform(kTimers);
        if (eng.cancel(ids[i])) arm(i);
      }
    }
  }
};

TEST(SteadyStateAlloc, EngineChurnAllocatesNothingOnceWarm) {
  DPAR_SKIP_IF_SANITIZED();
  Churn c;
  for (std::size_t i = 0; i < Churn::kTimers; ++i) c.arm(i);
  // Warm-up: the slab, the wheel buckets and the front heap grow to their
  // high-water marks.
  c.steps(1'000'000);
  const std::uint64_t before = allocations();
  c.steps(1'000'000);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(c.eng.live_events(), Churn::kTimers);
}

TEST(SteadyStateAlloc, FaultFreeVanillaRequestsStayNearlyAllocationFree) {
  DPAR_SKIP_IF_SANITIZED();
  harness::TestbedConfig cfg;
  cfg.data_servers = 3;
  cfg.compute_nodes = 2;
  cfg.cores_per_node = 4;
  harness::Testbed tb(cfg);
  wl::BtioConfig c;
  c.total_bytes = 8 << 20;
  c.write_steps = 8;
  c.file = tb.create_file("btio", c.total_bytes * 2);
  tb.add_job("btio", 8, tb.vanilla(), [c](std::uint32_t) { return wl::make_btio(c); },
             dualpar::Policy::kForcedNormal);
  const std::uint64_t before = allocations();
  tb.run();
  const std::uint64_t during = allocations() - before;
  std::uint64_t requests = 0;
  for (std::uint32_t s = 0; s < tb.num_servers(); ++s)
    requests += tb.server(s).requests_handled();
  ASSERT_GT(requests, 10'000u);
  // What remains is per I/O call of 16 pieces (the program's segment list,
  // the MPI layer's call record: ~0.19 per request here) plus pool growth up
  // to the working set. Per-message and per-piece records are pooled; with
  // them on the heap, the full-size 256-process BTIO cell made ~19 mallocs
  // per server request.
  EXPECT_LT(static_cast<double>(during) / static_cast<double>(requests), 0.25)
      << during << " allocations for " << requests << " server requests";
}

}  // namespace
}  // namespace dpar
