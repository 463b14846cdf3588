// Blktrace-style dispatch recorder.
//
// The paper uses blktrace to show LBN-vs-time scatter plots of the service
// order (Figs 1c, 1d, 6a, 6b). This recorder counts every dispatch of the
// simulated device: the seek-distance summary feeds the EMC locality daemon
// (§IV-B) and Fig 7(b). It keeps the event list itself only on request
// (set_keep_events), for the figures that plot it; a Fig 4 cell would
// otherwise hold millions of events nobody reads.
#pragma once

#include <cstdint>
#include <vector>

#include "disk/request.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace dpar::disk {

struct TraceEvent {
  sim::Time time = 0;
  std::uint64_t lba = 0;
  std::uint32_t sectors = 0;
  bool is_write = false;
  std::uint64_t context = 0;
  std::uint64_t seek_distance = 0;  ///< |lba - previous head| in sectors
};

class BlkTrace {
 public:
  void record(const TraceEvent& ev) {
    if (keep_events_) events_.push_back(ev);
    seek_slots_.add(ev.time, static_cast<double>(ev.seek_distance));
    total_seek_ += ev.seek_distance;
    ++dispatches_;
  }

  /// Keep the full event list (off by default; the counters run regardless).
  void set_keep_events(bool keep) { keep_events_ = keep; }

  const std::vector<TraceEvent>& events() const { return events_; }

  /// Events within [t0, t1), for windowed figures.
  std::vector<TraceEvent> window(sim::Time t0, sim::Time t1) const {
    std::vector<TraceEvent> out;
    for (const auto& ev : events_)
      if (ev.time >= t0 && ev.time < t1) out.push_back(ev);
    return out;
  }

  /// Mean seek distance (sectors) in the most recent completed sampling slot;
  /// this is the per-server SeekDist input to EMC.
  double slot_seek_distance(sim::Time now) { return seek_slots_.last_slot_mean(now); }

  double mean_seek_distance() const {
    return dispatches_ ? static_cast<double>(total_seek_) / static_cast<double>(dispatches_)
                       : 0.0;
  }
  std::uint64_t dispatches() const { return dispatches_; }

 private:
  bool keep_events_ = false;
  std::vector<TraceEvent> events_;
  sim::SlotSampler seek_slots_{sim::msec(500)};
  std::uint64_t total_seek_ = 0;
  std::uint64_t dispatches_ = 0;
};

}  // namespace dpar::disk
