// Background re-replication manager.
//
// Conceptually a daemon on the metadata server: it tracks the validity of
// every (chunk, role) copy of every file, detects under-replication after a
// crash, and issues repair copies — real request traffic that competes with
// foreground I/O through the same server service threads, disk schedulers
// and NIC TX paths — until full redundancy is restored, throttled by a
// token-bucket bandwidth cap.
//
// The bookkeeping is incremental: per-chunk live-copy counts and the
// under-replicated total move only where a copy's liveness changes, so a
// note or repair completion costs O(1) per copy, a tick O(invalid copies),
// and a crash or restart O(hosted copies). report() recounts from scratch
// and doubles as the oracle for the incremental state.
//
// Tracker state is mutated by the periodic tick, by the fault injector's
// server up/down listener, and by notes that clients post via
// `post_invalid_copies`, which reach the manager `note_delay` (the fabric's
// switch latency) later, like the message they model. Note effects are
// commutative (set-a-bit, bump-a-counter), so any same-timestamp arrival
// order produces the same tracker state.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fault/injector.hpp"
#include "pfs/file_system.hpp"
#include "replica/placement.hpp"
#include "sim/engine.hpp"

namespace dpar::replica {

/// Durability/recovery ledger of one run.
struct Counters {
  // client write fan-out
  std::uint64_t writes_replicated = 0;   ///< write ops that fanned out copies
  std::uint64_t write_copy_shards = 0;   ///< replica shards sent (roles >= 1)
  std::uint64_t chain_forwards = 0;      ///< chain-fanout relay hops
  std::uint64_t copy_write_failures = 0; ///< replica shards that failed for good
  // client degraded reads
  std::uint64_t degraded_reads = 0;      ///< read ops that used any replica
  std::uint64_t failover_shards = 0;     ///< shards re-aimed at a replica
  std::uint64_t failover_latency_ns = 0; ///< sum over failover_shards
  std::uint64_t out_of_replica_reads = 0;///< shards that ran out of replicas
  // tracker / repair
  std::uint64_t chunks_invalidated = 0;  ///< copies marked stale (crash/write loss)
  std::uint64_t repair_ops_issued = 0;
  std::uint64_t repair_ops_completed = 0;
  std::uint64_t repair_ops_failed = 0;   ///< timed out or copy-read/write error
  std::uint64_t repair_bytes_copied = 0;
  std::uint64_t repair_blocked_permanent = 0;  ///< deficit on a fail-stop server
  std::uint64_t chunks_unrepairable = 0; ///< attempt cap hit (e.g. bad sectors)

  friend bool operator==(const Counters&, const Counters&) = default;
};

/// End-of-run durability summary (tracker-derived, on top of the ledger).
struct DurabilityReport {
  Counters counters;
  std::uint64_t total_chunks = 0;       ///< across all registered files
  std::uint64_t total_copies = 0;       ///< total_chunks * rf
  std::uint64_t under_replicated_now = 0;  ///< chunks short of rf live copies
  std::uint64_t invalid_copies_now = 0;
  std::uint64_t lost_chunks = 0;        ///< no valid recoverable copy left
  double under_replicated_chunk_seconds = 0.0;

  friend bool operator==(const DurabilityReport&, const DurabilityReport&) = default;
};

class RepairManager {
 public:
  /// `jobs_live` gates tick re-arming (same idiom as the EMC/monitor
  /// daemons); `mds_node` is the metadata server the repair control messages
  /// originate from. A null injector disables the daemon entirely — no
  /// faults means no deficits — while the placement map stays available to
  /// the client write/read paths.
  RepairManager(sim::Engine& eng, net::Network& net, pfs::FileSystem& fs,
                ReplicaMap map, fault::FaultInjector* injector,
                net::NodeId mds_node, std::function<bool()> jobs_live);

  const ReplicaMap& map() const { return map_; }
  const ReplicaConfig& config() const { return map_.config(); }

  /// Track a freshly created file (all copies start valid). Called by
  /// FileSystem::create.
  void register_file(pfs::FileId id, std::uint64_t size);

  /// The run's durability ledger.
  Counters& counters() { return counters_; }
  const Counters& counters() const { return counters_; }

  /// Arm the periodic scan/dispatch tick and hook the injector's server
  /// up/down listener. Called from Testbed::run.
  void start();
  /// One scan/dispatch step (also callable directly from tests).
  void tick();

  /// Client entry point: copies of `chunks` under `role` failed a write
  /// for good and are now stale. The note lands `note_delay` later; effects
  /// commute.
  void post_invalid_copies(pfs::FileId file, std::uint32_t role,
                           std::vector<std::uint64_t> chunks);

  /// Tracker snapshot.
  /// Recomputes every figure by a full scan, independently of the
  /// incremental counts below.
  DurabilityReport report() const;
  /// Chunks short of rf live copies, from the incrementally kept count.
  std::uint64_t under_replicated_now() const { return under_now_; }
  std::uint64_t repairs_in_flight() const { return in_flight_; }

  /// Full structural validation (debug invariant layer): recomputes every
  /// chunk's live-copy count, the under-replicated total and the in-flight
  /// repair count by full scan and asserts they match the incremental
  /// state, and that no invalid bit lies past a file's last copy. Aborts
  /// via DPAR_ASSERT. Called after every tracker mutation when
  /// DPAR_CHECK_INVARIANTS is compiled in.
  void check_invariants() const;

 private:
  struct FileState {
    pfs::FileId id = 0;
    std::uint64_t size = 0;
    std::uint64_t chunks = 0;
    /// Stale copies, one bit per chunk-major slot [chunk * rf + role]. The
    /// bitmap is also the repair work index: tick() and the deficit check
    /// visit only its set bits, in ascending slot order, skipping clean
    /// 64-copy words.
    std::vector<std::uint64_t> invalid;
    /// Live copies per chunk: valid and hosted on an up server. Kept in
    /// step with `invalid` and with server up/down transitions.
    std::vector<std::uint32_t> live;
    /// Per-slot copy state, chunk-major like `invalid`.
    std::vector<std::uint32_t> attempts;
    std::vector<std::uint8_t> repairing;
    /// Invalidation sequence per copy: a repair completion only validates
    /// the copy if no invalidation landed after the repair was issued.
    std::vector<std::uint32_t> seq;
    /// Id of the currently in-flight repair per copy: a completion (or its
    /// watchdog timeout) acts only if it carries the current id, so a stale
    /// timeout can never kill a later reissue.
    std::vector<std::uint64_t> issue;

    bool invalid_at(std::size_t slot) const {
      return (invalid[slot / 64] >> (slot % 64)) & 1;
    }
  };

  void on_server_state_(std::uint32_t server, bool down);
  void note_invalid_(FileState& f, std::uint64_t chunk, std::uint32_t role);
  void repair_done_(std::size_t file_idx, std::uint64_t chunk, std::uint32_t role,
                    std::uint64_t issue_id, std::uint32_t issued_seq, fault::Status st);
  /// Set copy (chunk, role)'s invalid bit, keeping the live count in step
  /// when its server is up. Returns false (and does nothing) if the bit
  /// already had that value.
  bool set_invalid_(FileState& f, std::uint64_t chunk, std::uint32_t role, bool invalid);
  /// Move chunk's live-copy count up or down by one, folding the elapsed
  /// interval into the chunk-seconds ledger first if the chunk enters or
  /// leaves the under-replicated set.
  void adjust_live_(FileState& f, std::uint64_t chunk, bool gained);
  bool server_up_(std::uint32_t server) const {
    return !injector_ || !injector_->server_down(server);
  }
  bool copy_live_(const FileState& f, std::uint64_t chunk,
                  std::uint32_t role) const;
  /// Issue one repair copy source -> target for (file, chunk, role).
  void issue_repair_(std::size_t file_idx, std::uint64_t chunk, std::uint32_t role,
                     std::uint32_t source_role);
  bool deficit_actionable_() const;
  void arm_tick_();

  sim::Engine& eng_;
  net::Network& net_;
  pfs::FileSystem& fs_;
  ReplicaMap map_;
  fault::FaultInjector* injector_;
  net::NodeId mds_node_;
  std::function<bool()> jobs_live_;
  sim::Time note_delay_;
  Counters counters_;
  std::vector<FileState> tracked_;
  // Token bucket for repair bandwidth.
  double repair_tokens_ = 0.0;
  sim::Time last_tick_ = 0;
  // Chunks short of rf live copies, and the exact chunk-nanoseconds they
  // have accumulated up to under_since_ (the last change of under_now_).
  std::uint64_t under_now_ = 0;
  sim::Time under_since_ = 0;
  std::uint64_t under_chunk_ns_ = 0;
  std::uint64_t in_flight_ = 0;
  std::uint64_t next_issue_ = 1;
  bool ticking_ = false;
  bool started_ = false;
};

}  // namespace dpar::replica
