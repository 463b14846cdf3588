#include "harness/testbed.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dpar::harness {

namespace {
std::unique_ptr<disk::BlockDevice> make_device(sim::Engine& eng,
                                               const TestbedConfig& cfg,
                                               std::uint32_t server) {
  const disk::DiskParams& params = server < cfg.per_server_disk.size()
                                       ? cfg.per_server_disk[server]
                                       : cfg.disk;
  if (cfg.raid0) {
    return std::make_unique<disk::Raid0Device>(eng, params,
                                               disk::make_scheduler(cfg.scheduler),
                                               disk::make_scheduler(cfg.scheduler));
  }
  return std::make_unique<disk::DiskDevice>(eng, params,
                                            disk::make_scheduler(cfg.scheduler));
}
}  // namespace

Testbed::Testbed(TestbedConfig cfg) : cfg_(cfg) {
  if (cfg_.data_servers == 0) throw std::invalid_argument("Testbed: no data servers");
  if (cfg_.compute_nodes == 0) throw std::invalid_argument("Testbed: no compute nodes");
  if (cfg_.cores_per_node == 0) throw std::invalid_argument("Testbed: no cores");
  if (cfg_.stripe_unit == 0) throw std::invalid_argument("Testbed: zero stripe unit");
  if (cfg_.dualpar.cache_quota == 0)
    throw std::invalid_argument("Testbed: zero cache quota (use the vanilla driver "
                                "to disable DualPar)");
  // Malformed fault plans are rejected loudly even when they could not fire.
  cfg_.fault.validate();
  // Node layout: data servers on [0, S), metadata server on S, compute nodes
  // on [S+1, S+1+C).
  const std::uint32_t total_nodes = cfg_.data_servers + 1 + cfg_.compute_nodes;
  net_ = std::make_unique<net::Network>(eng_, total_nodes, cfg_.net);

  std::vector<pfs::DataServer*> raw_servers;
  for (std::uint32_t s = 0; s < cfg_.data_servers; ++s) {
    servers_.push_back(std::make_unique<pfs::DataServer>(eng_, s,
                                                         make_device(eng_, cfg_, s),
                                                         cfg_.server));
    servers_.back()->trace().set_keep_events(cfg_.keep_traces);
    raw_servers.push_back(servers_.back().get());
  }

  std::vector<net::NodeId> compute_node_ids;
  for (std::uint32_t c = 0; c < cfg_.compute_nodes; ++c) {
    const net::NodeId id = cfg_.data_servers + 1 + c;
    nodes_.push_back(std::make_unique<cluster::ComputeNode>(eng_, id, cfg_.cores_per_node));
    compute_node_ids.push_back(id);
  }

  fs_ = std::make_unique<pfs::FileSystem>(
      eng_, *net_, /*metadata_node=*/cfg_.data_servers, raw_servers,
      pfs::StripeLayout{cfg_.stripe_unit, cfg_.data_servers});
  clients_ = std::make_unique<mpiio::ClientPool>(*fs_);
  cache::CacheParams cp = cfg_.cache;
  cp.chunk_bytes = cfg_.stripe_unit;  // chunk == stripe unit (§IV-D)
  cache_ = std::make_unique<cache::GlobalCache>(eng_, *net_, compute_node_ids, cp);
  emc_ = std::make_unique<dualpar::Emc>(eng_, cfg_.dualpar, raw_servers);
  monitor_ = std::make_unique<metrics::SystemMonitor>(
      eng_, raw_servers, [this] { return !all_jobs_finished(); });

  const mpiio::IoEnv env{*fs_, *clients_, *net_, emc_.get()};
  vanilla_ = std::make_unique<mpiio::VanillaDriver>(env);
  collective_ = std::make_unique<mpiio::CollectiveDriver>(env, cfg_.collective);
  dualpar_ = std::make_unique<dualpar::DualParDriver>(env, *cache_, *emc_, cfg_.dualpar);
  preexec_ = std::make_unique<dualpar::PreexecDriver>(env, *cache_, cfg_.dualpar);

  if (cfg_.fault.enabled()) {
    injector_ = std::make_unique<fault::FaultInjector>(cfg_.fault, cfg_.data_servers,
                                                       total_nodes);
    net_->set_fault_injector(injector_.get());
    fs_->set_fault_injector(injector_.get());
    emc_->set_fault_injector(injector_.get());
    for (auto& s : servers_) s->set_fault_injector(injector_.get());
    // Server up/down transitions fan out from the injector: EMC degrades (or
    // re-engages) first, then the global cache drops every clean range that
    // was sourced from the failed server's stripes.
    injector_->add_server_listener([this](std::uint32_t server, bool down) {
      emc_->note_server_state(server, down);
      if (down) {
        injector_->counters().cache_invalidated_bytes +=
            cache_->invalidate_server(fs_->layout(), server);
      }
    });
  }

  if (cfg_.replica.enabled()) {
    cfg_.replica.validate(cfg_.data_servers);
    // Failure domains: server s (and compute node n) lives in rack id mod
    // num_racks — the deterministic assignment the rack-aware policy expects.
    std::vector<std::uint32_t> racks(cfg_.data_servers);
    for (std::uint32_t s = 0; s < cfg_.data_servers; ++s)
      racks[s] = s % cfg_.replica.num_racks;
    for (std::uint32_t c = 0; c < cfg_.compute_nodes; ++c)
      nodes_[c]->set_rack((cfg_.data_servers + 1 + c) % cfg_.replica.num_racks);
    // Built after the injector: the manager's ctor hooks the server up/down
    // listener, and listener order is part of the deterministic schedule.
    replicas_ = std::make_unique<replica::RepairManager>(
        eng_, *net_, *fs_,
        replica::ReplicaMap(pfs::StripeLayout{cfg_.stripe_unit, cfg_.data_servers},
                            cfg_.replica, std::move(racks)),
        injector_.get(), /*mds_node=*/cfg_.data_servers,
        [this] { return !all_jobs_finished(); });
    fs_->set_replicas(replicas_.get());
  }
}

void Testbed::schedule_crashes_() {
  if (crashes_scheduled_) return;
  crashes_scheduled_ = true;
  for (const auto& c : cfg_.fault.server.crashes) {
    pfs::DataServer* srv = servers_[c.server].get();
    eng_.at(c.at, [srv] { srv->crash(); });
    // Fail-stop crashes never restart: scheduling an event at kNeverRestarts
    // would keep the queue alive forever.
    if (c.restart_at != fault::kNeverRestarts)
      eng_.at(c.restart_at, [srv] { srv->restart(); });
  }
}

Testbed::~Testbed() = default;

std::vector<cluster::ComputeNode*> Testbed::compute_nodes() {
  std::vector<cluster::ComputeNode*> out;
  for (auto& n : nodes_) out.push_back(n.get());
  return out;
}

pfs::FileId Testbed::create_file(const std::string& name, std::uint64_t size) {
  return fs_->create(name, size);
}

mpi::Job& Testbed::add_job(const std::string& name, std::uint32_t nprocs,
                           mpi::IoDriver& driver, const mpi::Job::ProgramFactory& factory,
                           dualpar::Policy policy, sim::Time start_at) {
  jobs_.push_back(
      std::make_unique<mpi::Job>(eng_, next_job_id_++, name, driver, net_.get()));
  mpi::Job& job = *jobs_.back();
  job.spawn(nprocs, compute_nodes(), factory, next_gid_);
  next_gid_ += nprocs;
  emc_->register_job(job, policy);
  mpi::Job* jp = &job;
  // Defer to an event so construction order never matters.
  eng_.at(std::max(start_at, eng_.now()), [jp] { jp->start(); });
  return job;
}

std::uint64_t Testbed::run(std::uint64_t max_events) {
  schedule_crashes_();
  emc_->start();
  if (replicas_) replicas_->start();
  monitor_->start();
  // Periodic idle eviction ("a chunk will be evicted if it is not used for a
  // certain period of time", §IV-D); re-arms only while jobs live so the
  // queue can drain.
  eng_.after(cfg_.cache.idle_eviction / 2, [this] { evict_tick_(); });
  const std::uint64_t fired = eng_.run(max_events);
  if (all_jobs_finished()) return fired;
  if (eng_.empty())
    throw std::runtime_error("Testbed::run: event queue drained before all jobs "
                             "finished (deadlock?)");
  // The daemons re-arm while any job lives, so a stuck job never drains the
  // queue: it runs into the cap instead.
  const auto unfinished = std::count_if(jobs_.begin(), jobs_.end(),
                                        [](const auto& j) { return !j->finished(); });
  throw std::runtime_error(
      "Testbed::run: event cap of " + std::to_string(max_events) +
      " reached at simulated time " + std::to_string(sim::to_seconds(eng_.now())) +
      " s with " + std::to_string(unfinished) + " of " + std::to_string(jobs_.size()) +
      " jobs unfinished");
}

void Testbed::evict_tick_() {
  cache_->evict_idle(eng_.now());
  if (!all_jobs_finished())
    eng_.after(cfg_.cache.idle_eviction / 2, [this] { evict_tick_(); });
}

bool Testbed::all_jobs_finished() const {
  return std::all_of(jobs_.begin(), jobs_.end(),
                     [](const auto& j) { return j->finished(); });
}

double Testbed::job_throughput_mbs(const mpi::Job& job) const {
  const sim::Time dur = job.completion_time() - job.start_time();
  if (dur <= 0) return 0.0;
  return static_cast<double>(job.total_bytes()) / sim::to_seconds(dur) / 1e6;
}

double Testbed::system_throughput_mbs() const {
  if (jobs_.empty()) return 0.0;
  sim::Time first = INT64_MAX, last = 0;
  std::uint64_t bytes = 0;
  for (const auto& j : jobs_) {
    first = std::min(first, j->start_time());
    last = std::max(last, j->completion_time());
    bytes += j->total_bytes();
  }
  if (last <= first) return 0.0;
  return static_cast<double>(bytes) / sim::to_seconds(last - first) / 1e6;
}

double Testbed::total_io_time_s() const {
  sim::Time t = 0;
  for (const auto& j : jobs_) t += j->total_io_time();
  return sim::to_seconds(t);
}

}  // namespace dpar::harness
