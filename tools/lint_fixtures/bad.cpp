// dpar-lint golden fixture: every seeded violation below carries an expect
// marker naming its rule. The self-test requires the linter to
// produce exactly this finding set — a missed line means a rule regressed, an
// extra line means a new false positive. This file is never compiled.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <map>
#include <queue>
#include <random>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fixture {

struct Widget {
  int v = 0;
};

// ---- wall-clock ----------------------------------------------------------
inline long wall_now() {
  auto t = std::chrono::system_clock::now();  // expect(wall-clock)
  (void)t;
  long a = time(nullptr);                     // expect(wall-clock)
  long b = std::time(nullptr);                // expect(wall-clock)
  return a + b;
}

// ---- raw-random ----------------------------------------------------------
inline int roll() {
  std::random_device rd;        // expect(raw-random)
  std::mt19937 gen(rd());       // expect(raw-random)
  srand(42);                    // expect(raw-random)
  return rand() % 6;            // expect(raw-random)
}

// ---- unordered-iter ------------------------------------------------------
struct Table {
  std::unordered_map<int, double> cells_;
  std::unordered_set<int> keys_;

  double sum_in_hash_order() const {
    double s = 0;
    for (const auto& [k, v] : cells_) s += v;  // expect(unordered-iter)
    for (auto it = keys_.begin(); it != keys_.end(); ++it)  // expect(unordered-iter)
      s += *it;
    return s;
  }
};

// Multi-line declaration + iteration from another function.
inline std::unordered_map<long, std::map<int, int>>
    by_file_;
inline long walk_by_file() {
  long n = 0;
  for (const auto& kv : by_file_) n += kv.first;  // expect(unordered-iter)
  return n;
}

// ---- pointer-key ---------------------------------------------------------
inline std::map<Widget*, int> ranks_;        // expect(pointer-key)
inline std::set<const Widget*> live_;        // expect(pointer-key)

// ---- uninit-config -------------------------------------------------------
struct TunableParams {
  std::uint64_t chunk_bytes;  // expect(uninit-config)
  double slack;               // expect(uninit-config)
  bool enabled;               // expect(uninit-config)
  int initialized_fine = 3;
};

struct RunConfig {
  std::size_t workers;        // expect(uninit-config)
  std::uint32_t seed = 7;
};

// ---- event-queue ---------------------------------------------------------
// A hand-rolled timer queue beside the engine: cancels degrade to O(n) pile-up
// and the (time, seq) pop order is easy to get subtly wrong.
struct AdHocTimerQueue {
  std::priority_queue<long> pending_;          // expect(event-queue)
  std::vector<long> heap_;
  void rebuild() {
    std::make_heap(heap_.begin(), heap_.end());  // expect(event-queue)
    push_heap(heap_.begin(), heap_.end());       // expect(event-queue)
    std::pop_heap(heap_.begin(), heap_.end());   // expect(event-queue)
  }
};

// ---- stale-allow ----------------------------------------------------------
// A suppression whose offending line was refactored away: nothing on or
// under this comment matches [raw-random] any more, so the allow is inert —
// and silently masks the next raw_random landing here.
struct ReformedSampler {
  // dpar-lint: allow(raw-random) seeded generator for jitter  // expect(stale-allow)
  long next() { return 4; }  // chosen by fair dice roll, offline
};

}  // namespace fixture
