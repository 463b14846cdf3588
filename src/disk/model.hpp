// Positional service-time model of a rotating disk.
//
// Service time = command overhead + seek + rotational latency + media
// transfer. Seek time follows the classic settle + (stroke - settle) *
// sqrt(distance/capacity) curve; rotational latency is the expected half
// rotation, charged only when the head had to reposition. Requests that
// continue exactly (or nearly) where the previous one ended stream at the
// sustained media rate — this order-of-magnitude gap between sequential and
// random service is the effect DualPar exploits.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "disk/request.hpp"
#include "sim/time.hpp"

namespace dpar::disk {

struct DiskParams {
  std::uint64_t capacity_bytes = 500ull << 30;  ///< 500 GB
  double settle_ms = 0.6;                       ///< track-to-track seek
  double full_stroke_ms = 9.0;                  ///< end-to-end seek
  double rpm = 7200.0;
  double sustained_mb_s = 110.0;                ///< media transfer rate
  /// Gaps up to this many sectors still count as streaming (read-ahead /
  /// skip-over window of the drive).
  std::uint64_t near_seq_sectors = 64;
  sim::Time command_overhead = sim::usec(60);   ///< per-command controller cost

  std::uint64_t capacity_sectors() const { return capacity_bytes / kSectorBytes; }
  double bytes_per_sec() const { return sustained_mb_s * 1e6; }
  sim::Time full_rotation() const { return sim::from_seconds(60.0 / rpm); }
};

/// A 2012-class SATA SSD expressed in the same service model: no mechanical
/// positioning to speak of (tiny uniform access latency regardless of
/// address or direction) and a much higher transfer rate. Lets experiments
/// ask how much of DualPar's benefit is disk-era (answer in
/// bench_ssd_era: most of it).
inline DiskParams ssd_params() {
  DiskParams p;
  p.capacity_bytes = 256ull << 30;
  p.settle_ms = 0.04;        // flash read latency stands in for "seek"
  p.full_stroke_ms = 0.06;   // ~address-independent
  p.rpm = 1'000'000.0;       // rotation ~0: no rotational latency
  p.sustained_mb_s = 350.0;
  p.near_seq_sectors = 64;
  p.command_overhead = sim::usec(25);
  return p;
}

class DiskModel {
 public:
  explicit DiskModel(DiskParams p = {}) : p_(p) {}

  const DiskParams& params() const { return p_; }
  std::uint64_t head() const { return head_; }

  /// Absolute head distance to `lba` in sectors.
  std::uint64_t seek_distance(std::uint64_t lba) const {
    return lba > head_ ? lba - head_ : head_ - lba;
  }

  /// Positioning cost to reach an arbitrary sector `dist` away: settle +
  /// stroke-scaled seek + expected (half-rotation) rotational latency.
  sim::Time reposition_time(std::uint64_t dist) const {
    const double frac =
        static_cast<double>(dist) / static_cast<double>(p_.capacity_sectors());
    const double seek_ms =
        p_.settle_ms + (p_.full_stroke_ms - p_.settle_ms) * std::sqrt(frac);
    return sim::from_seconds(seek_ms / 1e3) + p_.full_rotation() / 2;
  }

  /// Service time for a request starting at the current head position;
  /// does not move the head.
  ///
  /// Forward positioning is cheap: a small gap streams, and a medium gap is
  /// passed over at angular speed (the platter keeps spinning under the
  /// head), costing at most a real repositioning. A *backward* jump, however
  /// short, pays the full repositioning: the sector has already passed under
  /// the head.
  sim::Time service_time(std::uint64_t lba, std::uint32_t sectors) const {
    const std::uint64_t dist = seek_distance(lba);
    const sim::Time transfer =
        sim::transfer_time(std::uint64_t{sectors} * kSectorBytes, p_.bytes_per_sec());
    if (lba >= head_) {
      if (dist <= p_.near_seq_sectors) {
        // Streaming: command overhead + media rate (plus the skipped gap).
        const sim::Time gap =
            sim::transfer_time(dist * kSectorBytes, p_.bytes_per_sec());
        return p_.command_overhead + gap + transfer;
      }
      const sim::Time pass_over =
          sim::transfer_time(dist * kSectorBytes, p_.bytes_per_sec());
      return p_.command_overhead + std::min(pass_over, reposition_time(dist)) + transfer;
    }
    return p_.command_overhead + reposition_time(dist) + transfer;
  }

  /// Serve the request: returns its service time and moves the head.
  sim::Time serve(std::uint64_t lba, std::uint32_t sectors) {
    const sim::Time t = service_time(lba, sectors);
    head_ = lba + sectors;
    return t;
  }

 private:
  DiskParams p_;
  std::uint64_t head_ = 0;
};

}  // namespace dpar::disk
