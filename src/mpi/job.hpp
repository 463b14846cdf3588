// Simulated MPI job: a set of rank processes executing Programs on compute
// nodes, a barrier, and an attached I/O driver (the MPI-IO library variant
// the job runs with).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/node.hpp"
#include "mpi/program.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"
#include "sim/func.hpp"
#include "sim/lane_annotations.hpp"
#include "sim/stats.hpp"

namespace dpar::mpi {

class Job;
class Process;

/// The MPI-IO library seen by a process. Implementations: vanilla
/// independent I/O, collective (two-phase) I/O, Strategy-2 pre-execution
/// prefetching, and DualPar.
class IoDriver {
 public:
  virtual ~IoDriver() = default;

  /// Serve one I/O call of `proc`; `done` resumes the process. The caller
  /// keeps `call` alive until `done` has run, so drivers may hold a pointer.
  virtual void io(Process& proc, const IoCall& call, sim::UniqueFunction done) = 0;

  /// Notifications the DualPar cycle coordinator relies on.
  virtual void on_barrier_enter(Process&) {}
  virtual void on_process_end(Process&) {}

  /// True when the driver only ever touches state owned by the calling
  /// process's compute node (or crosses nodes via the Network channel), so a
  /// job using it can run its ranks in per-compute-node PDES lanes. Drivers
  /// with cross-rank shared state (collective aggregation, ghost/pre-execution
  /// coordination) keep the default: the job stays on one lane.
  virtual bool lane_splittable() const { return false; }

  virtual std::string name() const = 0;
};

enum class ProcState {
  kRunning,      ///< computing or dispatching
  kBlockedIo,    ///< inside an I/O call, driver working
  kSuspended,    ///< parked by DualPar's PEC awaiting a data-driven cycle
  kAtBarrier,
  kBlockedComm,  ///< in a blocking send/recv awaiting its match
  kFinished,
};

class Process {
 public:
  Process(sim::Engine& eng, Job& job, std::uint32_t rank, std::uint32_t global_id,
          std::unique_ptr<Program> prog, cluster::ComputeNode& node);

  void start();

  Job& job() { return job_; }
  std::uint32_t rank() const { return rank_; }
  /// Cluster-unique process id (I/O context id at the disks).
  std::uint32_t global_id() const { return global_id_; }
  cluster::ComputeNode& node() { return node_; }
  ProcState state() const { return state_; }
  void set_suspended(bool s);

  /// Fork the program at its exact current position (ghost pre-execution).
  std::unique_ptr<Program> clone_program() const { return prog_->clone(); }

  sim::Time io_time() const { return io_time_; }
  sim::Time compute_time() const { return compute_time_; }
  std::uint64_t bytes_read() const { return bytes_read_; }
  std::uint64_t bytes_written() const { return bytes_written_; }
  sim::Time finish_time() const { return finish_time_; }

  /// Per-call I/O latency, recorded rank-locally so concurrent lanes never
  /// share a histogram; Job merges the shards in rank order at read time.
  /// The pair is allocated on the first record (a rank that never does I/O
  /// costs one pointer, not 1 KB of zeroed buckets); until then both read as
  /// an empty histogram.
  const sim::Histogram& read_latency() const { return lat_ ? lat_->read : kNoLatency; }
  const sim::Histogram& write_latency() const { return lat_ ? lat_->write : kNoLatency; }
  void record_latency(bool is_write, sim::Time latency) {
    if (!lat_) lat_ = std::make_unique<Latency>();
    sim::Histogram& h = is_write ? lat_->write : lat_->read;
    h.add(static_cast<double>(latency) / sim::kNsPerUs);
  }

  /// Observed application I/O throughput (bytes per second of elapsed time
  /// spent in I/O calls); PEC uses it to bound pre-execution duration.
  double recent_io_bandwidth() const;

 private:
  void advance();
  void handle(OpCompute op);
  void handle(OpIo op);
  void handle(OpBarrier op);
  void handle(OpAllreduce op);
  void handle(OpSend op);
  void handle(OpRecv op);
  void handle(OpEnd op);

  sim::Engine& eng_;
  Job& job_;
  std::uint32_t rank_;
  std::uint32_t global_id_;
  std::unique_ptr<Program> prog_;
  cluster::ComputeNode& node_;
  ProgramContext ctx_;
  ProcState state_ = ProcState::kRunning;
  sim::Time io_time_ = 0;
  sim::Time compute_time_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::uint64_t bytes_written_ = 0;
  sim::Time finish_time_ = -1;
  struct Latency {
    sim::Histogram read;
    sim::Histogram write;
  };
  static const sim::Histogram kNoLatency;
  std::unique_ptr<Latency> lat_;
};

class Job {
 public:
  using ProgramFactory = std::function<std::unique_ptr<Program>(std::uint32_t rank)>;

  /// `net` carries point-to-point messages; without one, transfers are
  /// approximated by a latency/bandwidth formula (unit-test convenience).
  Job(sim::Engine& eng, std::uint32_t id, std::string name, IoDriver& driver,
      net::Network* net = nullptr);

  /// Create `nprocs` rank processes, distributed round-robin over `nodes`.
  /// `first_global_id` spaces process ids so concurrent jobs don't collide.
  void spawn(std::uint32_t nprocs, const std::vector<cluster::ComputeNode*>& nodes,
             const ProgramFactory& factory, std::uint32_t first_global_id);

  void start();

  /// Switch the job onto the split-lane coordination protocol: barrier
  /// entries and rank completions are posted to the engine's exclusive lane
  /// as notes carrying their original timestamps, `latency` (the fabric's
  /// switch latency == the PDES lookahead) in the future, and releases go
  /// back out as one cross-lane message per compute node. The protocol runs
  /// identically at every worker count — including the unpartitioned engine,
  /// where the cross-lane calls degrade to plain events — so eligible
  /// configurations stay byte-identical across `DPAR_PDES_WORKERS`.
  /// Must be called before start_lanes(); requires a Network fabric.
  void enable_lane_coordination(sim::Time latency);
  bool lane_coordinated() const { return coord_latency_ >= 0; }

  /// Start every rank at absolute time `at`, batched as one event per
  /// compute-node lane (rank order within a node). Used instead of start()
  /// when lane coordination is enabled.
  void start_lanes(sim::Time at);

  void set_on_complete(std::function<void()> cb) { on_complete_ = std::move(cb); }

  std::uint32_t id() const { return id_; }
  const std::string& name() const { return name_; }
  IoDriver& driver() { return driver_; }
  sim::Engine& engine() { return eng_; }
  std::uint32_t nprocs() const { return static_cast<std::uint32_t>(procs_.size()); }
  Process& process(std::uint32_t i) { return *procs_[i]; }
  bool finished() const { return finished_ == nprocs() && nprocs() > 0; }
  sim::Time start_time() const { return start_time_; }
  sim::Time completion_time() const { return completion_time_; }

  /// True when any rank's program issues point-to-point sends/receives; the
  /// rendezvous queues are job-global state, so such jobs cannot split their
  /// ranks across lanes.
  bool uses_p2p() const { return uses_p2p_; }

  /// Aggregates for EMC's I/O-ratio input and throughput reporting.
  sim::Time total_io_time() const;
  sim::Time total_compute_time() const;
  std::uint64_t total_bytes() const;

  /// Per-call I/O latency distribution (microseconds), read and write:
  /// the ranks' per-process shards merged in rank order. Merging at read
  /// time keeps the hot recording path lane-local.
  sim::Histogram read_latency() const;
  sim::Histogram write_latency() const;

  /// Barrier entry from `proc`; `resume` fires when all live ranks arrived.
  /// `payload_bytes` > 0 models a synchronizing collective (allreduce):
  /// every rank additionally pays ~2 log2(P) payload exchanges.
  void barrier_enter(Process& proc, sim::UniqueFunction resume,
                     std::uint64_t payload_bytes = 0);

  /// Rendezvous point-to-point matching: both sides resume once the payload
  /// has crossed the network.
  void comm_send(Process& proc, std::uint32_t dest, std::uint64_t bytes, int tag,
                 sim::UniqueFunction resume);
  void comm_recv(Process& proc, std::uint32_t src, int tag,
                 sim::UniqueFunction resume);

  /// Count of processes in any of the given parked states; the DualPar cycle
  /// coordinator triggers when parked == nprocs.
  bool all_parked() const;

  /// Internal: called by Process.
  void process_finished(Process& proc);

 private:
  void release_barrier_if_ready();

  // Split-lane coordination (exclusive-lane side). Notes carry the original
  // rank-lane timestamps so the release time and completion time are computed
  // from when things actually happened, not when the notes arrived.
  DPAR_EXCLUSIVE_LANE void barrier_note_(std::uint32_t rank, sim::Time entered,
                                         std::uint64_t payload_bytes,
                                         sim::UniqueFunction resume);
  DPAR_EXCLUSIVE_LANE void finish_note_(sim::Time ended);
  DPAR_EXCLUSIVE_LANE void release_coord_barrier_if_ready_();
  sim::LaneId rank_lane_(std::uint32_t rank);

  void comm_transfer(std::uint32_t src_rank, std::uint32_t dst_rank,
                     std::uint64_t bytes, sim::UniqueFunction done);

  sim::Engine& eng_;
  std::uint32_t id_;
  std::string name_;
  IoDriver& driver_;
  net::Network* net_;
  std::vector<std::unique_ptr<Process>> procs_;
  std::uint32_t finished_ = 0;
  sim::Time start_time_ = -1;
  sim::Time completion_time_ = -1;
  std::function<void()> on_complete_;
  bool uses_p2p_ = false;
  sim::Time coord_latency_ = -1;  ///< >= 0: split-lane coordination active

  // Barrier state for the current epoch. Waiters carry their rank so the
  // release can sort them into canonical rank order — the same order the
  // split-lane protocol uses — keeping the two paths schedule-identical.
  struct BarrierWaiter {
    std::uint32_t rank;
    sim::UniqueFunction resume;
  };
  std::vector<BarrierWaiter> barrier_waiters_;
  std::uint64_t barrier_payload_ = 0;

  // Coordinated-barrier state, touched only from the exclusive lane.
  struct CoordWaiter {
    std::uint32_t rank;
    sim::Time entered;
    sim::UniqueFunction resume;
  };
  DPAR_EXCLUSIVE_LANE std::vector<CoordWaiter> coord_waiters_;

  // Point-to-point rendezvous queues, keyed by (src, dst, tag).
  struct CommKey {
    std::uint32_t src, dst;
    int tag;
    friend auto operator<=>(const CommKey&, const CommKey&) = default;
  };
  struct PendingSend {
    std::uint64_t bytes;
    sim::UniqueFunction resume;
  };
  std::map<CommKey, std::deque<PendingSend>> pending_sends_;
  std::map<CommKey, std::deque<sim::UniqueFunction>> pending_recvs_;
};

}  // namespace dpar::mpi
