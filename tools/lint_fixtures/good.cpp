// dpar-lint golden fixture: determinism-contract-clean counterparts of every
// bad.cpp pattern, plus the allow-comment escape hatch and the known
// look-alikes the linter must NOT flag. The self-test fails on any finding
// in this file. This file is never compiled.
#include <chrono>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace fixture {

// Monotonic perf accounting is permitted: it feeds the perf JSON side
// channel, never simulator state.
inline double perf_elapsed() {
  const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Identifiers containing banned words are not calls of them.
inline long runtime(long x) { return x; }        // not time(
inline long wall_time(long x) { return x; }      // not time(
inline int randomize_nothing() { return 0; }     // not rand()
struct BrandConfig {
  int brand = 1;  // initialized; name contains "rand"
};

// Point lookups into unordered containers are fine — only iteration leaks
// hash order.
struct Table {
  std::unordered_map<int, double> cells_;

  double lookup(int k) const {
    auto it = cells_.find(k);
    return it != cells_.end() ? it->second : 0.0;
  }
  bool has(int k) const { return cells_.count(k) != 0; }
};

// Sort-before-emit: collecting keys then sorting is the sanctioned pattern,
// with the walk itself annotated as order-independent.
inline std::vector<int> sorted_keys(const Table& t) {
  std::vector<int> keys;
  keys.reserve(t.cells_.size());
  // dpar-lint: allow(unordered-iter) keys are collected then sorted before use
  for (const auto& [k, v] : t.cells_) keys.push_back(k);
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Value-keyed ordered containers order deterministically.
inline std::map<std::string, int> by_name_;
inline int walk_by_name() {
  int n = 0;
  for (const auto& kv : by_name_) n += kv.second;
  return n;
}

// Smart-pointer values (not keys) are fine; iteration over a std::map of
// them is deterministic.
inline std::map<int, std::unique_ptr<int>> owned_;

// Fully initialized Params struct.
struct TunableParams {
  std::uint64_t chunk_bytes = 64 * 1024;
  double slack = 2.0;
  bool enabled = true;
  std::vector<int> weights;  // non-POD members need no "= ..." to be defined
};

// Heap-adjacent identifiers and sanctioned orderings the event-queue rule
// must not flag: sorting is fine (only the heap family is banned), names
// merely containing "heap" are not calls of it, and a genuinely local
// scratch heap takes the allow escape with a justification.
struct ScratchRanking {
  std::vector<int> scores_;
  long heap_bytes_ = 0;  // member named *heap* is not a heap primitive
  void order() { std::sort(scores_.begin(), scores_.end()); }
  long measure_heap_usage() { return heap_bytes_; }  // not make_heap(
  void top_k() {
    // dpar-lint: allow(event-queue) transient scratch ranking, never holds
    // simulator events — the engine's queue is not bypassed
    std::make_heap(scores_.begin(), scores_.end());
  }
};

// Allows the stale-allow pass must NOT flag: rule names owned by other
// tools sharing the `dpar-lint:` comment namespace are skipped rather than
// reported, and a used allow — like every one above in this file — is
// load-bearing by definition.
struct OtherToolEscape {
  // dpar-lint: allow(other-tool-rule) owned by a different checker
  void foreign() {}
};

}  // namespace fixture
