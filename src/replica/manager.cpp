#include "replica/manager.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "pfs/server.hpp"
#include "sim/debug.hpp"

namespace dpar::replica {

namespace {
/// Disk-scheduler I/O context of repair traffic: one shared background
/// context, distinct from every foreground op's.
constexpr std::uint64_t kRepairContext = ~0ull;
/// Token bucket depth, in scan intervals' worth of budget: bounds the burst
/// a long idle stretch can bank up.
constexpr double kTokenBucketDepth = 4.0;

/// Call `fn(slot)` for every set bit of `bits` in ascending order, skipping
/// all-zero words, until `fn` returns true. Returns whether it stopped early.
template <class Fn>
bool find_set_bit(const std::vector<std::uint64_t>& bits, Fn&& fn) {
  for (std::size_t w = 0; w < bits.size(); ++w)
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1)
      if (fn(w * 64 + static_cast<std::size_t>(std::countr_zero(word))))
        return true;
  return false;
}
}  // namespace

RepairManager::RepairManager(sim::Engine& eng, net::Network& net,
                             pfs::FileSystem& fs, ReplicaMap map,
                             fault::FaultInjector* injector,
                             net::NodeId mds_node,
                             std::function<bool()> jobs_live)
    : eng_(eng),
      net_(net),
      fs_(fs),
      map_(std::move(map)),
      injector_(injector),
      mds_node_(mds_node),
      jobs_live_(std::move(jobs_live)),
      note_delay_(net.params().switch_latency) {
  if (injector_) {
    // Our crash model: a dead server's replica
    // regions are dirty — every copy it hosts must be re-replicated from a
    // surviving copy once it is back (the motivation's "a server crash
    // silently loses data").
    injector_->add_server_listener(
        [this](std::uint32_t server, bool down) { on_server_state_(server, down); });
  }
}

void RepairManager::register_file(pfs::FileId id, std::uint64_t size) {
  FileState f;
  f.id = id;
  f.size = size;
  f.chunks = map_.num_chunks(size);
  const std::uint32_t rf = map_.replication_factor();
  const std::size_t copies = f.chunks * rf;
  f.invalid.assign((copies + 63) / 64, 0);
  f.live.assign(f.chunks, rf);
  f.attempts.assign(copies, 0);
  f.repairing.assign(copies, 0);
  f.seq.assign(copies, 0);
  f.issue.assign(copies, 0);
  // Every copy starts valid; only one created mid-outage starts short of a
  // live copy on the down server.
  if (injector_ && injector_->servers_down() > 0)
    for (std::uint64_t k = 0; k < f.chunks; ++k)
      for (std::uint32_t r = 0; r < rf; ++r)
        if (!server_up_(map_.server_of(k, r))) adjust_live_(f, k, false);
  tracked_.push_back(std::move(f));
  DPAR_IF_CHECKING(check_invariants());
}

bool RepairManager::copy_live_(const FileState& f, std::uint64_t chunk,
                               std::uint32_t role) const {
  if (f.invalid_at(chunk * map_.replication_factor() + role)) return false;
  return server_up_(map_.server_of(chunk, role));
}

void RepairManager::adjust_live_(FileState& f, std::uint64_t chunk, bool gained) {
  const std::uint32_t rf = map_.replication_factor();
  const bool was_under = f.live[chunk] < rf;
  f.live[chunk] = gained ? f.live[chunk] + 1 : f.live[chunk] - 1;
  const bool is_under = f.live[chunk] < rf;
  if (was_under == is_under) return;
  // The ledger is exact integer chunk-nanoseconds, so folding only when the
  // count changes gives the same sum as folding at any finer split.
  const sim::Time now = eng_.now();
  under_chunk_ns_ += under_now_ * static_cast<std::uint64_t>(now - under_since_);
  under_since_ = now;
  if (is_under)
    ++under_now_;
  else
    --under_now_;
}

bool RepairManager::set_invalid_(FileState& f, std::uint64_t chunk,
                                 std::uint32_t role, bool invalid) {
  const std::size_t slot = chunk * map_.replication_factor() + role;
  if (f.invalid_at(slot) == invalid) return false;
  f.invalid[slot / 64] ^= std::uint64_t{1} << (slot % 64);
  if (server_up_(map_.server_of(chunk, role))) adjust_live_(f, chunk, !invalid);
  return true;
}

void RepairManager::note_invalid_(FileState& f, std::uint64_t chunk,
                                  std::uint32_t role) {
  const std::uint32_t rf = map_.replication_factor();
  DPAR_ASSERT(chunk < f.chunks && role < rf,
              "invalidation note for a copy outside the file");
  ++f.seq[chunk * rf + role];
  if (set_invalid_(f, chunk, role, true)) ++counters().chunks_invalidated;
}

void RepairManager::on_server_state_(std::uint32_t server, bool down) {
  // The injector has already flipped the server, so every valid copy it
  // hosts just changed liveness; a crash also dirties all of them (a copy
  // already on a down server leaves the live counts alone when invalidated).
  const std::uint32_t rf = map_.replication_factor();
  for (FileState& f : tracked_)
    for (std::uint64_t k = 0; k < f.chunks; ++k)
      for (std::uint32_t r = 0; r < rf; ++r) {
        if (map_.server_of(k, r) != server) continue;
        if (!f.invalid_at(k * rf + r)) adjust_live_(f, k, !down);
        if (down) note_invalid_(f, k, r);
      }
  DPAR_IF_CHECKING(check_invariants());
  // A restart makes blocked deficits actionable again; restart the daemon if
  // its tick chain had wound down after the jobs finished.
  if (!down && started_ && !ticking_ && deficit_actionable_()) arm_tick_();
}

void RepairManager::post_invalid_copies(pfs::FileId file, std::uint32_t role,
                                        std::vector<std::uint64_t> chunks) {
  if (chunks.empty()) return;
  eng_.after(note_delay_, [this, file, role, chunks = std::move(chunks)] {
    for (FileState& f : tracked_)
      if (f.id == file)
        for (std::uint64_t k : chunks) note_invalid_(f, k, role);
    DPAR_IF_CHECKING(check_invariants());
    if (started_ && !ticking_ && deficit_actionable_()) arm_tick_();
  });
}

bool RepairManager::deficit_actionable_() const {
  if (!injector_) return false;
  const std::uint32_t rf = map_.replication_factor();
  const sim::Time now = eng_.now();
  for (const FileState& f : tracked_) {
    const bool found = find_set_bit(f.invalid, [&](std::size_t slot) {
      if (f.repairing[slot]) return false;
      if (f.attempts[slot] >= config().repair_attempt_cap) return false;
      const std::uint64_t k = slot / rf;
      const auto r = static_cast<std::uint32_t>(slot % rf);
      if (injector_->server_down(map_.server_of(k, r))) return false;
      for (std::uint32_t s = 0; s < rf; ++s)
        if (s != r && copy_live_(f, k, s) &&
            !injector_->permanently_down(map_.server_of(k, s), now))
          return true;
      return false;
    });
    if (found) return true;
  }
  return false;
}

void RepairManager::issue_repair_(std::size_t file_idx, std::uint64_t chunk,
                                  std::uint32_t role, std::uint32_t source_role) {
  FileState& f = tracked_[file_idx];
  const std::uint32_t rf = map_.replication_factor();
  const std::size_t slot = chunk * rf + role;
  const std::uint64_t unit = map_.layout().unit_bytes;
  const std::uint64_t bytes = std::min(unit, f.size - chunk * unit);
  const std::uint64_t file_off = chunk * unit;
  f.repairing[slot] = 1;
  ++f.attempts[slot];
  ++in_flight_;
  ++counters().repair_ops_issued;
  const std::uint32_t issued_seq = f.seq[slot];
  const std::uint64_t issue_id = next_issue_++;
  f.issue[slot] = issue_id;

  pfs::DataServer& src = fs_.server(map_.server_of(chunk, source_role));
  pfs::DataServer& tgt = fs_.server(map_.server_of(chunk, role));
  const net::NodeId src_node = src.node();
  const net::NodeId tgt_node = tgt.node();
  const std::uint64_t src_local =
      map_.replica_local_offset(f.size, file_off, source_role);
  const std::uint64_t tgt_local = map_.replica_local_offset(f.size, file_off, role);

  // The whole copy must finish (or fail) within this budget, or the tick
  // declares the attempt dead (e.g. the source crashed and its reply was
  // squashed) and schedules a fresh one.
  const sim::Time patience =
      2 * injector_->request_timeout(bytes) + config().repair_scan_interval;
  eng_.after(patience, [this, file_idx, chunk, role, issue_id, issued_seq] {
    repair_done_(file_idx, chunk, role, issue_id, issued_seq, fault::Status::kTimeout);
  });

  // Control message metadata-server -> source, then a replica-local read at
  // the source, the chunk's bytes across the fabric, a replica-local write
  // at the target, and a completion note hopping home through the metadata
  // node. Every stage shares the foreground path's service threads, disk
  // schedulers and NIC FIFOs — repair genuinely competes with application
  // I/O.
  auto note = [this, file_idx, chunk, role, issue_id, issued_seq](fault::Status st) {
    eng_.after(note_delay_, [this, file_idx, chunk, role, issue_id, issued_seq, st] {
      repair_done_(file_idx, chunk, role, issue_id, issued_seq, st);
    });
  };
  net_.send(
      mds_node_, src_node, 128,
      [this, &src, &tgt, src_node, tgt_node, src_local, tgt_local, bytes,
       file_id = f.id, note = std::move(note)]() mutable {
        pfs::ServerIoRequest rd;
        rd.file = file_id;
        rd.is_write = false;
        rd.context = kRepairContext;
        rd.runs.push_back(pfs::ServerRun{src_local, bytes});
        rd.done = [this, &tgt, src_node, tgt_node, tgt_local, bytes, file_id,
                   note = std::move(note)](fault::Status st) mutable {
          if (!fault::ok(st)) {
            // Read-side failure (media error on the surviving copy): report
            // home without moving the payload.
            net_.send(src_node, mds_node_, 64,
                      [st, note = std::move(note)]() mutable { note(st); });
            return;
          }
          net_.send(
              src_node, tgt_node, bytes + 64,
              [this, &tgt, tgt_node, tgt_local, bytes, file_id,
               note = std::move(note)]() mutable {
                pfs::ServerIoRequest wr;
                wr.file = file_id;
                wr.is_write = true;
                wr.context = kRepairContext;
                wr.runs.push_back(pfs::ServerRun{tgt_local, bytes});
                wr.done = [this, tgt_node,
                           note = std::move(note)](fault::Status st) mutable {
                  net_.send(tgt_node, mds_node_, 64,
                            [st, note = std::move(note)]() mutable { note(st); });
                };
                tgt.handle(std::move(wr));
              });
        };
        src.handle(std::move(rd));
      });
}

void RepairManager::repair_done_(std::size_t file_idx, std::uint64_t chunk,
                                 std::uint32_t role, std::uint64_t issue_id,
                                 std::uint32_t issued_seq, fault::Status st) {
  FileState& f = tracked_[file_idx];
  const std::size_t slot = chunk * map_.replication_factor() + role;
  // Act only on the current in-flight repair: a late watchdog (or a stale
  // completion racing it) must not touch a later reissue of the same copy.
  if (!f.repairing[slot] || f.issue[slot] != issue_id) return;
  f.repairing[slot] = 0;
  DPAR_ASSERT(in_flight_ > 0, "repair completion without an in-flight op");
  --in_flight_;
  const std::uint64_t unit = map_.layout().unit_bytes;
  if (fault::ok(st) && f.seq[slot] == issued_seq) {
    set_invalid_(f, chunk, role, false);
    f.attempts[slot] = 0;
    ++counters().repair_ops_completed;
    counters().repair_bytes_copied += std::min(unit, f.size - chunk * unit);
  } else {
    ++counters().repair_ops_failed;
    if (f.attempts[slot] >= config().repair_attempt_cap)
      ++counters().chunks_unrepairable;
  }
  DPAR_IF_CHECKING(check_invariants());
  if (started_ && !ticking_ && deficit_actionable_()) arm_tick_();
}

void RepairManager::start() {
  if (!injector_ || started_) return;
  started_ = true;
  last_tick_ = eng_.now();
  under_since_ = eng_.now();
  arm_tick_();
}

void RepairManager::arm_tick_() {
  ticking_ = true;
  eng_.after(config().repair_scan_interval, [this] {
    ticking_ = false;
    tick();
  });
}

void RepairManager::tick() {
  if (!injector_) return;
  const sim::Time now = eng_.now();
  const double interval_s = sim::to_seconds(config().repair_scan_interval);
  repair_tokens_ = std::min(
      repair_tokens_ +
          config().repair_bandwidth * sim::to_seconds(now - last_tick_),
      config().repair_bandwidth * interval_s * kTokenBucketDepth);
  last_tick_ = now;

  // Visit stale copies in ascending (file, chunk, role) order until the
  // batch fills: the order decides which deficits a full batch defers.
  const std::uint32_t rf = map_.replication_factor();
  const std::uint64_t unit = map_.layout().unit_bytes;
  std::uint32_t issued = 0;
  for (std::size_t fi = 0; fi < tracked_.size(); ++fi) {
    FileState& f = tracked_[fi];
    const bool full = find_set_bit(f.invalid, [&](std::size_t slot) {
      if (f.repairing[slot]) return false;
      if (f.attempts[slot] >= config().repair_attempt_cap) return false;
      const std::uint64_t k = slot / rf;
      const auto r = static_cast<std::uint32_t>(slot % rf);
      const std::uint32_t target = map_.server_of(k, r);
      if (injector_->permanently_down(target, now)) {
        // Fixed placement cannot re-home a copy: a fail-stop target leaves
        // this deficit standing forever. Count it once and stop retrying.
        f.attempts[slot] = config().repair_attempt_cap;
        ++counters().repair_blocked_permanent;
        return false;
      }
      if (injector_->server_down(target)) return false;  // wait for the restart
      std::uint32_t source = UINT32_MAX;
      for (std::uint32_t s = 0; s < rf && source == UINT32_MAX; ++s)
        if (s != r && copy_live_(f, k, s)) source = s;
      if (source == UINT32_MAX) return false;
      const std::uint64_t bytes = std::min(unit, f.size - k * unit);
      if (repair_tokens_ < static_cast<double>(bytes)) return false;
      repair_tokens_ -= static_cast<double>(bytes);
      issue_repair_(fi, k, r, source);
      return ++issued >= config().repair_batch_chunks;
    });
    if (full) break;
  }
  DPAR_IF_CHECKING(check_invariants());
  if (jobs_live_() || in_flight_ > 0 || deficit_actionable_()) arm_tick_();
}

DurabilityReport RepairManager::report() const {
  DurabilityReport rep;
  rep.counters = counters_;
  const std::uint32_t rf = map_.replication_factor();
  const sim::Time now = eng_.now();
  for (const FileState& f : tracked_) {
    rep.total_chunks += f.chunks;
    for (std::uint64_t k = 0; k < f.chunks; ++k) {
      std::uint32_t live = 0, recoverable = 0;
      for (std::uint32_t r = 0; r < rf; ++r) {
        const bool invalid = f.invalid_at(k * rf + r);
        rep.invalid_copies_now += invalid ? 1 : 0;
        live += copy_live_(f, k, r) ? 1 : 0;
        const bool gone =
            injector_ && injector_->permanently_down(map_.server_of(k, r), now);
        recoverable += (!invalid && !gone) ? 1 : 0;
      }
      rep.under_replicated_now += live < rf ? 1 : 0;
      rep.lost_chunks += recoverable == 0 ? 1 : 0;
    }
  }
  rep.total_copies = rep.total_chunks * rf;
  const std::uint64_t open = under_now_ * static_cast<std::uint64_t>(now - under_since_);
  rep.under_replicated_chunk_seconds = static_cast<double>(under_chunk_ns_ + open) / 1e9;
  return rep;
}

void RepairManager::check_invariants() const {
  const std::uint32_t rf = map_.replication_factor();
  std::uint64_t under = 0, repairing = 0;
  for (const FileState& f : tracked_) {
    const std::size_t copies = f.chunks * rf;
    DPAR_ASSERT(f.invalid.size() == (copies + 63) / 64 && f.live.size() == f.chunks,
                "tracker index sized for a different file");
    DPAR_ASSERT(copies % 64 == 0 || f.invalid.back() >> (copies % 64) == 0,
                "invalid bit set past the file's last copy");
    for (std::uint64_t k = 0; k < f.chunks; ++k) {
      std::uint32_t live = 0;
      for (std::uint32_t r = 0; r < rf; ++r) live += copy_live_(f, k, r) ? 1 : 0;
      DPAR_ASSERT(f.live[k] == live,
                  "incremental live-copy count drifted from a full scan");
      under += live < rf ? 1 : 0;
    }
    for (std::size_t slot = 0; slot < copies; ++slot) {
      DPAR_ASSERT(!f.repairing[slot] || f.invalid_at(slot),
                  "repair in flight for a valid copy");
      repairing += f.repairing[slot];
    }
  }
  DPAR_ASSERT(under_now_ == under,
              "incremental under-replicated count drifted from a full scan");
  DPAR_ASSERT(in_flight_ == repairing,
              "in-flight repair count disagrees with the per-copy flags");
}

}  // namespace dpar::replica
