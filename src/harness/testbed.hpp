// Testbed: assembles a complete simulated cluster in the image of the
// paper's platform (§V): N data servers (one disk RAID each) + a metadata
// server + compute nodes, PVFS2-style striping, Gigabit Ethernet, memcached
// global cache, EMC daemon, and the four MPI-IO driver variants.
//
// This is the public top-level API — examples and benches build everything
// through it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/global_cache.hpp"
#include "cluster/node.hpp"
#include "disk/device.hpp"
#include "fault/injector.hpp"
#include "dualpar/driver.hpp"
#include "dualpar/emc.hpp"
#include "dualpar/params.hpp"
#include "dualpar/preexec.hpp"
#include "metrics/monitor.hpp"
#include "mpi/job.hpp"
#include "mpiio/collective.hpp"
#include "mpiio/vanilla.hpp"
#include "net/network.hpp"
#include "pfs/file_system.hpp"
#include "replica/manager.hpp"
#include "sim/engine.hpp"

namespace dpar::harness {

struct TestbedConfig {
  std::uint32_t data_servers = 9;      ///< paper: 9 PVFS2 data servers
  std::uint32_t compute_nodes = 4;     ///< nodes running MPI processes
  std::uint32_t cores_per_node = 48;   ///< paper: 48-core Opteron nodes
  std::uint64_t stripe_unit = 64 * 1024;
  bool raid0 = true;                   ///< per-server RAID of two drives
  disk::DiskParams disk;
  /// Optional per-server disk overrides (index = server id); servers beyond
  /// the vector use `disk`. Models heterogeneous or degraded storage (the
  /// I/O-variability setting of Lofstead et al., the paper's [11]).
  std::vector<disk::DiskParams> per_server_disk;
  disk::SchedulerKind scheduler = disk::SchedulerKind::kCfq;
  pfs::ServerParams server;
  net::NetParams net;
  cache::CacheParams cache;
  dualpar::Params dualpar;
  mpiio::CollectiveParams collective;
  /// Retain full blktrace event lists (disable for long sweeps).
  bool keep_traces = true;
  /// Fault plan for the run. Default-constructed = disabled: no injector is
  /// created, every layer keeps its fault-free fast path and the simulation
  /// output is byte-identical to a build without the fault subsystem.
  fault::FaultPlan fault;
  /// N-way chunk replication. Default (replication_factor == 1) = disabled:
  /// no repair manager is created and the PFS keeps its pre-replication
  /// allocation and request paths byte-for-byte.
  replica::ReplicaConfig replica;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig cfg = {});
  ~Testbed();

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  sim::Engine& engine() { return eng_; }
  net::Network& network() { return *net_; }
  pfs::FileSystem& fs() { return *fs_; }
  cache::GlobalCache& cache() { return *cache_; }
  dualpar::Emc& emc() { return *emc_; }
  metrics::SystemMonitor& monitor() { return *monitor_; }
  const TestbedConfig& config() const { return cfg_; }
  /// The run's fault injector, or null when the plan is disabled.
  fault::FaultInjector* fault_injector() { return injector_.get(); }
  /// The run's re-replication manager, or null when replication_factor == 1.
  replica::RepairManager* replica_manager() { return replicas_.get(); }

  mpiio::VanillaDriver& vanilla() { return *vanilla_; }
  mpiio::CollectiveDriver& collective() { return *collective_; }
  dualpar::DualParDriver& dualpar() { return *dualpar_; }
  dualpar::PreexecDriver& preexec() { return *preexec_; }

  pfs::DataServer& server(std::uint32_t i) { return *servers_[i]; }
  std::uint32_t num_servers() const { return static_cast<std::uint32_t>(servers_.size()); }
  cluster::ComputeNode& compute_node(std::uint32_t i) { return *nodes_[i]; }
  std::vector<cluster::ComputeNode*> compute_nodes();

  /// Create a file of `size` bytes.
  pfs::FileId create_file(const std::string& name, std::uint64_t size);

  /// Create a job running `factory`-built programs on all compute nodes with
  /// the given driver; registers it with EMC under `policy` and starts it at
  /// `start_at` (simulated time).
  mpi::Job& add_job(const std::string& name, std::uint32_t nprocs, mpi::IoDriver& driver,
                    const mpi::Job::ProgramFactory& factory,
                    dualpar::Policy policy = dualpar::Policy::kForcedDataDriven,
                    sim::Time start_at = 0);

  /// Run to completion of all jobs (drains the event queue).
  /// Returns the number of events fired. Throws std::runtime_error when a
  /// job is left unfinished: either the queue drained with ranks still
  /// blocked, or `max_events` fired first (the message says which).
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  bool all_jobs_finished() const;

  /// Aggregate application I/O throughput of a job in MB/s over its runtime.
  double job_throughput_mbs(const mpi::Job& job) const;
  /// Aggregate across jobs: total bytes / time from first start to last end.
  double system_throughput_mbs() const;
  /// Aggregate of all jobs' per-process I/O time, seconds.
  double total_io_time_s() const;

 private:
  /// Schedule the fault plan's crash/restart events. Called from the first
  /// run(), after every add_job of the setup has scheduled its start.
  void schedule_crashes_();

  /// One idle-eviction sweep; re-arms itself while jobs live so the event
  /// queue can drain at the end of the run.
  void evict_tick_();

  TestbedConfig cfg_;
  sim::Engine eng_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<net::Network> net_;
  std::vector<std::unique_ptr<pfs::DataServer>> servers_;
  std::vector<std::unique_ptr<cluster::ComputeNode>> nodes_;
  std::unique_ptr<pfs::FileSystem> fs_;
  std::unique_ptr<mpiio::ClientPool> clients_;
  std::unique_ptr<replica::RepairManager> replicas_;
  std::unique_ptr<cache::GlobalCache> cache_;
  std::unique_ptr<dualpar::Emc> emc_;
  std::unique_ptr<metrics::SystemMonitor> monitor_;
  std::unique_ptr<mpiio::VanillaDriver> vanilla_;
  std::unique_ptr<mpiio::CollectiveDriver> collective_;
  std::unique_ptr<dualpar::DualParDriver> dualpar_;
  std::unique_ptr<dualpar::PreexecDriver> preexec_;
  std::vector<std::unique_ptr<mpi::Job>> jobs_;
  std::uint32_t next_gid_ = 1;
  std::uint32_t next_job_id_ = 1;
  bool crashes_scheduled_ = false;
};

}  // namespace dpar::harness
