// Sampling CPU profiler for dpar_bench's traced run.
//
// A timer on the calling thread's CPU clock interrupts it every 4 ms of CPU
// time (the kernel tick bounds the real rate); the signal handler only stores
// the interrupted program counter, which keeps it async-signal-safe. After
// the run the PCs are resolved against this executable's own ELF symbol
// table and each sample is charged to the simulator module (src/ directory)
// whose code was running. Nothing under src/ is instrumented.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace dpar_bench {

/// Owns the process's SIGPROF handler and one thread-CPU timer; at most one
/// instance may exist. The process must be single-threaded while sampling:
/// the timer signal is process-directed.
class Sampler {
 public:
  /// Room for `capacity` samples; later samples are dropped and counted.
  explicit Sampler(std::size_t capacity);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void start();
  void stop();
  /// PCs recorded since construction (call while stopped).
  std::vector<std::uintptr_t> pcs() const;
  std::uint64_t dropped() const;

 private:
  std::vector<std::uintptr_t> buf_;
  void* timer_ = nullptr;  ///< timer_t
};

/// Samples charged per module. Keys are src/ module names (`sim`, `disk`,
/// ...), `libs` for PCs outside the executable (allocator, memcpy,
/// libstdc++), and the empty string for PCs no rule places.
struct Attribution {
  std::map<std::string, std::uint64_t> per_module;
  std::uint64_t total = 0;
  /// Hottest symbols as (samples, "module  demangled name"), descending.
  std::vector<std::pair<std::uint64_t, std::string>> top_symbols;
};

/// Resolve `pcs` against /proc/self/exe's symbol table and charge each to
/// the innermost `dpar::<module>::` scope of its function (template
/// arguments and parameter types do not count). A `sim::UniqueFn` invoker
/// thunk is charged to the module of the callable it wraps; a name with no
/// dpar scope falls back to the first dpar type among its template
/// arguments. Throws std::runtime_error when the executable has no readable
/// symbol table.
Attribution attribute(const std::vector<std::uintptr_t>& pcs, std::size_t top_n);

}  // namespace dpar_bench
