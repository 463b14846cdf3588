// System-level measurement: periodic sampling of aggregate server throughput
// and per-server seek distance — the data behind Figs 7(a) and 7(b).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "pfs/server.hpp"
#include "sim/engine.hpp"
#include "sim/stats.hpp"

namespace dpar::metrics {

class SystemMonitor {
 public:
  /// Samples while `alive()` returns true (typically "any job unfinished"),
  /// so the event queue can drain when the experiment completes.
  SystemMonitor(sim::Engine& eng, std::vector<pfs::DataServer*> servers,
                std::function<bool()> alive, sim::Time slot = sim::secs(1));

  void start();

  /// Aggregate server-side throughput per slot (MB/s).
  const sim::TimeSeries& throughput_series() const { return throughput_; }
  /// Mean dispatch seek distance (sectors) on server 0 per slot.
  const sim::TimeSeries& seek_series() const { return seek_; }

 private:
  /// One sampling step (see start).
  void sample();

  sim::Engine& eng_;
  std::vector<pfs::DataServer*> servers_;
  std::function<bool()> alive_;
  sim::Time slot_;
  // Sampling state: touched only by sample().
  std::uint64_t prev_bytes_ = 0;
  std::uint64_t prev_dispatches_ = 0;
  std::uint64_t prev_seek_total_ = 0;
  sim::TimeSeries throughput_;
  sim::TimeSeries seek_;
};

/// Mean of a series' values within [t0, t1); 0 when empty.
double series_mean(const sim::TimeSeries& s, sim::Time t0, sim::Time t1);

}  // namespace dpar::metrics
