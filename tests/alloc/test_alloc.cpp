// Steady-state allocation tests for the request and MPI-IO call paths.
//
// This binary replaces the global operator new/delete with counting versions,
// which is why it is its own executable (ctest label `alloc`) instead of part
// of dpar_tests. It pins the claim of sim/engine.hpp and sim/func.hpp: once
// the pools have grown to a run's working set, scheduling, firing and
// cancelling events allocates nothing, and a fault-free request or collective
// call costs a small fraction of one allocation. Sanitizers interpose the
// allocator themselves, so sanitized builds skip the checks.
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

/// The small BTIO testbed the request-path tests share: 3 servers, 2
/// compute nodes, 8 ranks, `total_bytes` written in 8 steps and read back.
struct SmallBtio {
  harness::Testbed tb;
  wl::BtioConfig c;

  SmallBtio(bool collective, std::uint64_t total_bytes,
            harness::TestbedConfig cfg = config())
      : tb(cfg) {
    c.total_bytes = total_bytes;
    c.write_steps = 8;
    c.collective = collective;
    c.file = tb.create_file("btio", c.total_bytes * 2);
  }
  static harness::TestbedConfig config() {
    harness::TestbedConfig cfg;
    cfg.data_servers = 3;
    cfg.compute_nodes = 2;
    cfg.cores_per_node = 4;
    return cfg;
  }
  void add(mpi::IoDriver& driver) {
    tb.add_job(
        "btio", kProcs, driver, [c = c](std::uint32_t) { return wl::make_btio(c); },
        dualpar::Policy::kForcedNormal);
  }
  std::uint64_t server_requests() {
    std::uint64_t n = 0;
    for (std::uint32_t s = 0; s < tb.num_servers(); ++s)
      n += tb.server(s).requests_handled();
    return n;
  }
  static constexpr std::uint32_t kProcs = 8;
};

TEST(SteadyStateAlloc, FaultFreeVanillaRequestsStayNearlyAllocationFree) {
  DPAR_SKIP_IF_SANITIZED();
  SmallBtio b(/*collective=*/false, 8 << 20);
  b.add(b.tb.vanilla());
  const std::uint64_t before = allocations();
  b.tb.run();
  const std::uint64_t during = allocations() - before;
  const std::uint64_t requests = b.server_requests();
  ASSERT_GT(requests, 10'000u);
  // Every in-flight record is pooled and every call reuses its process's
  // segment storage, so what remains is pool growth up to the working set
  // (measured: 708 allocations for 13,248 requests, 0.053 each). With
  // per-message and per-piece records on the heap, the full-size 256-process
  // BTIO cell made ~19 mallocs per server request; with a segment list and a
  // call record per I/O call, this run made 2,562 (0.19 per request).
  EXPECT_LT(static_cast<double>(during) / static_cast<double>(requests), 0.08)
      << during << " allocations for " << requests << " server requests";
}

TEST(SteadyStateAlloc, FaultedVanillaRequestsStayNearlyAllocationFree) {
  DPAR_SKIP_IF_SANITIZED();
  // The same run with an injector armed: every request arms a timeout and
  // draws fault decisions, and the client's call records, run storage and
  // closures are the same pooled ones as without faults.
  harness::TestbedConfig cfg = SmallBtio::config();
  cfg.fault.disk.stall_rate = 0.001;
  SmallBtio b(/*collective=*/false, 8 << 20, cfg);
  ASSERT_NE(b.tb.fault_injector(), nullptr);
  b.add(b.tb.vanilla());
  const std::uint64_t before = allocations();
  b.tb.run();
  const std::uint64_t during = allocations() - before;
  const std::uint64_t requests = b.server_requests();
  ASSERT_GT(requests, 10'000u);
  // Measured: 731 allocations for 13,248 requests, 0.055 each. With a heap
  // control block, its shard vector and a send closure that spilled the
  // whole request per call, the same run made 73,023 (5.5 per request).
  EXPECT_LT(static_cast<double>(during) / static_cast<double>(requests), 0.08)
      << during << " allocations for " << requests << " server requests";
}

TEST(SteadyStateAlloc, CollectiveCallsStayNearlyAllocationFree) {
  DPAR_SKIP_IF_SANITIZED();
  // Collective rounds move 8x the data of the vanilla run in less time.
  SmallBtio b(/*collective=*/true, 64 << 20);
  b.add(b.tb.collective());
  const std::uint64_t before = allocations();
  b.tb.run();
  const std::uint64_t during = allocations() - before;
  // Every rank takes part in every round with one call.
  const std::uint64_t calls = b.tb.collective().collective_rounds() * SmallBtio::kProcs;
  ASSERT_GT(calls, 5'000u);
  // Rounds, plans, planner scratch and the process's call record are pooled
  // or reused, so what remains is their growth to the working set (measured:
  // 588 allocations for 6,656 calls, 0.088 each; an 8 MB run makes 537 for
  // 896). With a segment list and a call record per call and a fresh plan
  // per round, the same run made 31,320 (4.7 per call).
  EXPECT_LT(static_cast<double>(during) / static_cast<double>(calls), 0.12)
      << during << " allocations for " << calls << " collective calls";
}

}  // namespace
}  // namespace dpar
