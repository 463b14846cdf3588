#include "metrics/monitor.hpp"

namespace dpar::metrics {

SystemMonitor::SystemMonitor(sim::Engine& eng, std::vector<pfs::DataServer*> servers,
                             std::function<bool()> alive, sim::Time slot)
    : eng_(eng), servers_(std::move(servers)), alive_(std::move(alive)), slot_(slot) {}

void SystemMonitor::start() {
  eng_.after(slot_, [this] {
    sample();
    if (alive_()) start();
  });
}

void SystemMonitor::sample() {
  std::uint64_t bytes = 0;
  for (pfs::DataServer* s : servers_) bytes += s->bytes_read() + s->bytes_written();
  const double mbs =
      static_cast<double>(bytes - prev_bytes_) / sim::to_seconds(slot_) / 1e6;
  prev_bytes_ = bytes;
  throughput_.add(eng_.now(), mbs);

  if (!servers_.empty()) {
    const auto& tr = servers_[0]->trace();
    // Mean seek distance over the dispatches of the last slot.
    const std::uint64_t d = tr.dispatches();
    const double total = tr.mean_seek_distance() * static_cast<double>(d);
    const double delta_seek = total - static_cast<double>(prev_seek_total_);
    const double delta_n = static_cast<double>(d - prev_dispatches_);
    seek_.add(eng_.now(), delta_n > 0 ? delta_seek / delta_n : 0.0);
    prev_dispatches_ = d;
    prev_seek_total_ = static_cast<std::uint64_t>(total);
  }
}

double series_mean(const sim::TimeSeries& s, sim::Time t0, sim::Time t1) {
  double sum = 0.0;
  std::uint64_t n = 0;
  for (const auto& [t, v] : s.points) {
    if (t >= t0 && t < t1) {
      sum += v;
      ++n;
    }
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace dpar::metrics
