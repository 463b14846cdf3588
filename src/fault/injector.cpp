#include "fault/injector.hpp"

#include <algorithm>
#include <stdexcept>

namespace dpar::fault {

namespace {
// Layer tags folded into the plan seed; each (layer, locality) stream gets
// splitmix64(seed ^ (tag + index)) so enabling faults in one layer — or
// adding a server/node — never perturbs another stream's sequence.
constexpr std::uint64_t kDiskTag = 0xd15c0000u;
constexpr std::uint64_t kNetTag = 0x0e70000u;
constexpr std::uint64_t kServerTag = 0x5e77e000u;

std::vector<sim::Rng> make_streams(std::uint64_t seed, std::uint64_t tag,
                                   std::uint32_t n) {
  std::vector<sim::Rng> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i)
    out.emplace_back(sim::splitmix64(seed ^ (tag + i)));
  return out;
}
}  // namespace

FaultInjector::FaultInjector(FaultPlan plan, std::uint32_t num_servers,
                             std::uint32_t num_nodes)
    : plan_(std::move(plan)),
      disk_rngs_(make_streams(plan_.seed, kDiskTag, num_servers)),
      server_rngs_(make_streams(plan_.seed, kServerTag, num_servers)),
      net_rngs_(make_streams(plan_.seed, kNetTag,
                             num_nodes > 0 ? num_nodes : num_servers)),
      down_(num_servers, false) {
  plan_.validate();
  for (const auto& c : plan_.server.crashes)
    if (c.server >= num_servers)
      throw std::invalid_argument("FaultPlan: crash names a server that does not exist");
  for (const auto& b : plan_.disk.bad_sectors)
    if (b.server != kAllServers && b.server >= num_servers)
      throw std::invalid_argument(
          "FaultPlan: bad-sector range names a server that does not exist");
}

FaultInjector::DiskVerdict FaultInjector::disk_verdict(std::uint32_t server,
                                                       std::uint64_t lba,
                                                       std::uint32_t sectors) {
  DiskVerdict v;
  for (const auto& b : plan_.disk.bad_sectors) {
    if (b.server != kAllServers && b.server != server) continue;
    if (lba < b.lba + b.sectors && b.lba < lba + sectors) {
      ++counters().disk_bad_sector_hits;
      ++counters().disk_media_errors;
      v.status = Status::kMediaError;
      return v;
    }
  }
  sim::Rng& rng = disk_rngs_[server];
  if (plan_.disk.media_error_rate > 0.0 && rng.chance(plan_.disk.media_error_rate)) {
    ++counters().disk_media_errors;
    v.status = Status::kMediaError;
    return v;
  }
  if (plan_.disk.stall_rate > 0.0 && rng.chance(plan_.disk.stall_rate)) {
    ++counters().disk_stalls;
    v.stall = plan_.disk.stall_time;
  }
  return v;
}

bool FaultInjector::net_deliver(std::uint32_t from, std::uint32_t to,
                                sim::Time now, sim::Time& extra_delay) {
  extra_delay = 0;
  for (const auto& p : plan_.net.partitions) {
    const bool pair = (p.node_a == from && p.node_b == to) ||
                      (p.node_a == to && p.node_b == from);
    if (pair && now >= p.start && now < p.end) {
      ++counters().net_partition_drops;
      ++counters().net_dropped;
      return false;
    }
  }
  sim::Rng& rng = net_rngs_[from < net_rngs_.size() ? from : 0];
  if (plan_.net.drop_rate > 0.0 && rng.chance(plan_.net.drop_rate)) {
    ++counters().net_dropped;
    return false;
  }
  if (plan_.net.delay_rate > 0.0 && rng.chance(plan_.net.delay_rate)) {
    ++counters().net_delayed;
    extra_delay = plan_.net.delay_time;
  }
  return true;
}

sim::Time FaultInjector::server_stall(std::uint32_t server) {
  if (plan_.server.stall_rate > 0.0 &&
      server_rngs_[server].chance(plan_.server.stall_rate)) {
    ++counters().server_stalls;
    return plan_.server.stall_time;
  }
  return 0;
}

bool FaultInjector::permanently_down(std::uint32_t server, sim::Time now) const {
  if (!server_down(server)) return false;
  // Down right now; still recoverable only if some plan entry restarts this
  // server strictly after `now`. The crash list is tiny (hand-written plans),
  // so a linear scan beats carrying extra state.
  for (const auto& c : plan_.server.crashes)
    if (c.server == server && c.restart_at != kNeverRestarts &&
        c.restart_at > now)
      return false;
  return true;
}

void FaultInjector::note_server_state(std::uint32_t server, bool down) {
  if (server >= down_.size() || down_[server] == down) return;
  down_[server] = down;
  if (down) {
    ++servers_down_;
    ++counters().server_crashes;
  } else {
    --servers_down_;
    ++counters().server_restarts;
  }
  for (const auto& l : listeners_) l(server, down);
}

sim::Time FaultInjector::request_timeout(std::uint64_t bytes) const {
  return plan_.retry.timeout_base +
         sim::transfer_time(bytes, plan_.retry.timeout_min_bandwidth);
}

sim::Time FaultInjector::backoff(std::uint32_t attempt) const {
  double b = static_cast<double>(plan_.retry.backoff_base);
  for (std::uint32_t i = 1; i < attempt; ++i) b *= plan_.retry.backoff_factor;
  b = std::min(b, static_cast<double>(plan_.retry.backoff_max));
  return static_cast<sim::Time>(b);
}

}  // namespace dpar::fault
