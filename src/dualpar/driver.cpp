#include "dualpar/driver.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "dualpar/crm.hpp"

namespace dpar::dualpar {

DualParDriver::DualParDriver(mpiio::IoEnv env, cache::GlobalCache& cache, Emc& emc,
                             Params params)
    : VanillaDriver(env), cache_(cache), emc_(emc), params_(params) {}

void DualParDriver::on_raw_status(fault::Status st) {
  // Fault-free runs never reach the EMC feedback path (the EWMA would churn
  // for nothing); with injection armed, every delegated vanilla transfer
  // votes so EMC can observe recovery while degraded.
  if (env_.fs.fault_injector() == nullptr) return;
  note_batch_status(st);
}

void DualParDriver::note_batch_status(fault::Status st) {
  if (fault::ok(st)) {
    emc_.report_io_ok();
    return;
  }
  ++stats_.io_errors;
  emc_.report_io_error();
}

DualParDriver::JobState& DualParDriver::state_for(mpi::Job& job) {
  const std::uint32_t id = job.id();
  if (id >= jobs_.size()) jobs_.resize(id + 1);
  auto& slot = jobs_[id];
  if (!slot) {
    slot = std::make_unique<JobState>();
    slot->crm_context = 1'000'000 + std::uint64_t{id} * 1000;
  }
  return *slot;
}

void DualParDriver::io(mpi::Process& proc, const mpi::IoCall& call,
                       sim::UniqueFunction done) {
  if (env_.observer)
    env_.observer->observe(proc.job().id(), call.file, call.segments,
                           env_.fs.engine().now());

  const Mode mode = emc_.mode(proc.job().id());
  if (mode == Mode::kNormal) {
    if (!call.is_write) {
      bool covered = true;
      for (const auto& s : call.segments)
        covered = covered && cache_.covers(call.file, s);
      if (covered && !call.segments.empty()) {
        serve_from_cache(proc, call, std::move(done));
        return;
      }
    } else {
      // Write-through: anything dirty in the cache for these ranges is now
      // superseded by the data going straight to the servers.
      for (const auto& s : call.segments) cache_.clear_dirty(call.file, s);
    }
    raw_io(proc, call, std::move(done));  // already observed above
    return;
  }

  if (call.is_write) {
    write_path(proc, call, std::move(done));
  } else {
    read_path(proc, call, std::move(done));
  }
}

void DualParDriver::serve_from_cache(mpi::Process& proc, const mpi::IoCall& call,
                                     sim::UniqueFunction done) {
  stats_.cache_hit_bytes += call.total_bytes();
  for (const auto& s : call.segments) cache_.reference(call.file, s);
  if (call.segments.empty()) {
    env_.fs.engine().after(0, std::move(done));
    return;
  }
  const std::uint32_t fan =
      fans_.open(static_cast<std::uint32_t>(call.segments.size()), std::move(done));
  for (const auto& s : call.segments) {
    cache_.transfer(call.file, s, proc.node().id(), /*to_cache=*/false,
                    sim::inline_fn([this, fan] { fans_.complete(fan); }));
  }
}

void DualParDriver::read_path(mpi::Process& proc, const mpi::IoCall& call,
                              sim::UniqueFunction done) {
  bool covered = !call.segments.empty();
  for (const auto& s : call.segments) covered = covered && cache_.covers(call.file, s);
  if (covered) {
    serve_from_cache(proc, call, std::move(done));
    return;
  }

  // Miss: suspend the process (PEC) and fork its ghost.
  mpi::Job& job = proc.job();
  JobState& st = state_for(job);
  proc.set_suspended(true);
  st.pending.push_back(Pending{&proc, call, std::move(done), /*write_hold=*/false});

  if (st.ghosts.find(proc.global_id()) == st.ghosts.end()) {
    ++stats_.ghost_forks;
    auto ghost = std::make_unique<GhostRunner>(
        env_.fs.engine(), proc, params_.cache_quota,
        [this, &job] { maybe_start_cycle(job); });
    GhostRunner* g = ghost.get();
    st.ghosts.emplace(proc.global_id(), std::move(ghost));
    arm_deadline(job, proc);
    g->start(call);
  }
  maybe_start_cycle(job);
}

void DualParDriver::write_path(mpi::Process& proc, const mpi::IoCall& call,
                               sim::UniqueFunction done) {
  mpi::Job& job = proc.job();
  JobState& st = state_for(job);
  st.files_written.insert(call.file);
  std::uint64_t bytes = 0;
  for (const auto& s : call.segments) {
    // Dirty chunks live on the writer's node when the writer owns a
    // substantial share of the chunk (local put, flush from there). Finely
    // interleaved writes — many ranks per chunk — keep round-robin homes so
    // no single NIC becomes the sink for everyone's data.
    const net::NodeId hint = (s.length * 4 >= cache_.params().chunk_bytes)
                                 ? proc.node().id()
                                 : cache::kAutoHome;
    cache_.write(call.file, s, proc.global_id(), hint);
    bytes += s.length;
  }
  st.dirty_bytes[proc.global_id()] += bytes;

  const std::uint32_t fan = fans_.open(
      static_cast<std::uint32_t>(std::max<std::size_t>(call.segments.size(), 1)),
      [this, &proc, &job, done = std::move(done)]() mutable {
        JobState& jst = state_for(job);
        if (jst.dirty_bytes[proc.global_id()] >= params_.cache_quota) {
          // Cache full for this process: hold it until the write-back cycle.
          proc.set_suspended(true);
          jst.pending.push_back(
              Pending{&proc, {}, std::move(done), /*write_hold=*/true});
          maybe_start_cycle(job);
        } else {
          done();
        }
      });
  if (call.segments.empty()) {
    env_.fs.engine().after(0, sim::inline_fn([this, fan] { fans_.complete(fan); }));
    return;
  }
  for (const auto& s : call.segments) {
    cache_.transfer(call.file, s, proc.node().id(), /*to_cache=*/true,
                    sim::inline_fn([this, fan] { fans_.complete(fan); }));
  }
}

void DualParDriver::on_barrier_enter(mpi::Process& proc) {
  maybe_start_cycle(proc.job());
}

void DualParDriver::on_process_end(mpi::Process& proc) {
  mpi::Job& job = proc.job();
  maybe_start_cycle(job);
  if (job.finished()) final_flush(job);
}

void DualParDriver::arm_deadline(mpi::Job& job, mpi::Process& proc) {
  JobState& st = state_for(job);
  if (st.deadline) return;
  // Expected time to fill the quota at the process's recent I/O throughput
  // (§IV-C), scaled by the slack factor and clamped.
  double bw = proc.recent_io_bandwidth();
  if (bw < 1e6) bw = 1e6;  // cold start: assume 1 MB/s
  sim::Time t = sim::from_seconds(static_cast<double>(params_.cache_quota) / bw *
                                  params_.preexec_deadline_slack);
  t = std::clamp(t, params_.preexec_deadline_min, params_.preexec_deadline_max);
  st.deadline = env_.fs.engine().after(t, [this, &job] {
    JobState& jst = state_for(job);
    jst.deadline = {};
    ++stats_.deadline_expiries;
    for (auto& [id, g] : jst.ghosts) g->stop();
    maybe_start_cycle(job);
  });
}

void DualParDriver::maybe_start_cycle(mpi::Job& job) {
  JobState& st = state_for(job);
  if (st.cycle_active || st.pending.empty()) return;
  if (!job.all_parked()) return;
  // Processes parked at a barrier never miss, but their future reads belong
  // in the batch too ("when the pre-execution of every process is paused");
  // fork their ghosts from the current program position now.
  for (std::uint32_t i = 0; i < job.nprocs(); ++i) {
    mpi::Process& p = job.process(i);
    if (p.state() != mpi::ProcState::kAtBarrier) continue;
    if (st.ghosts.find(p.global_id()) != st.ghosts.end()) continue;
    ++stats_.ghost_forks;
    auto ghost = std::make_unique<GhostRunner>(
        env_.fs.engine(), p, params_.cache_quota,
        [this, &job] { maybe_start_cycle(job); });
    GhostRunner* g = ghost.get();
    st.ghosts.emplace(p.global_id(), std::move(ghost));
    arm_deadline(job, p);
    g->start();
    // start() can recurse into maybe_start_cycle and begin the cycle; bail
    // out if that happened.
    if (st.cycle_active) return;
  }
  for (const auto& [id, g] : st.ghosts)
    if (!g->paused()) return;
  start_cycle(job);
}

void DualParDriver::start_cycle(mpi::Job& job) {
  JobState& st = state_for(job);
  st.cycle_active = true;
  ++stats_.cycles;
  if (st.deadline) {
    env_.fs.engine().cancel(st.deadline);
    st.deadline = {};
  }

  // Mis-prefetch evaluation for the previous round ("the fraction of
  // prefetched but not used data in a cache when the next pre-execution
  // begins", §IV-C).
  if (st.prev_prefetch_bytes > 0) {
    const std::uint64_t unused = cache_.unused_prefetched_bytes(st.prev_chunks);
    emc_.report_misprefetch(job.id(), static_cast<double>(unused) /
                                          static_cast<double>(st.prev_prefetch_bytes));
    st.prev_chunks.clear();
    st.prev_prefetch_bytes = 0;
  }
  // Recycle the previous round's clean chunks (the quota is per cycle).
  for (std::uint32_t i = 0; i < job.nprocs(); ++i)
    cache_.drop_clean(job.process(i).global_id());
  cache_.drop_clean(st.crm_context);

  run_writeback(job, [this, &job] {
    run_prefetch(job, [this, &job] { resume_all(job); });
  });
}

/// Issue `segments` of `file` as one batch: pieces are dispatched from the
/// compute node that is (or will become) each chunk's cache home (CRM runs
/// on every node), so payloads cross the network once; all pieces share one
/// I/O context so the disk schedulers see a single deep queue.
void DualParDriver::issue_batch(
    pfs::FileId file, const std::vector<pfs::Segment>& segments, bool is_write,
    std::uint64_t context, const std::map<std::uint64_t, net::NodeId>* intended_homes,
    sim::UniqueFn<void(fault::Status)> done) {
  std::map<net::NodeId, std::vector<pfs::Segment>> per_home;
  const std::uint64_t chunk = cache_.params().chunk_bytes;
  for (const auto& seg : segments) {
    std::uint64_t off = seg.offset, rem = seg.length;
    while (rem > 0) {
      const std::uint64_t index = off / chunk;
      const std::uint64_t take = std::min(rem, chunk - off % chunk);
      net::NodeId home = cache_.placed_home(cache::ChunkKey{file, index});
      if (intended_homes) {
        auto it = intended_homes->find(index);
        if (it != intended_homes->end() && it->second != cache::kAutoHome)
          home = it->second;
      }
      auto& list = per_home[home];
      if (!list.empty() && list.back().end() == off) {
        list.back().length += take;
      } else {
        list.push_back(pfs::Segment{off, take});
      }
      off += take;
      rem -= take;
    }
  }
  if (per_home.empty()) {
    env_.fs.engine().after(0, [done = std::move(done)]() mutable {
      done(fault::Status::kOk);
    });
    return;
  }
  const std::uint32_t fan =
      batch_fans_.open(static_cast<std::uint32_t>(per_home.size()), std::move(done));
  for (auto& [home, list] : per_home) {
    env_.clients.for_node(home).io(
        file, list, is_write, context,
        sim::inline_fn([this, fan](std::uint64_t, fault::Status st) {
          fault::complete_status(batch_fans_, fan, st);
        }));
  }
}

void DualParDriver::run_writeback(mpi::Job& job, sim::UniqueFunction next) {
  JobState& st = state_for(job);
  BatchOptions opt{params_.sort_batch, params_.merge_batch,
                   params_.fill_holes ? params_.hole_fill_max : 0};

  struct FilePlan {
    pfs::FileId file;
    WritebackPlan plan;
  };
  auto plans = std::make_shared<std::vector<FilePlan>>();
  for (pfs::FileId f : st.files_written) {
    auto dirty = cache_.dirty_segments(f);
    if (dirty.empty()) continue;
    plans->push_back(FilePlan{f, plan_writeback(std::move(dirty), opt)});
  }
  st.dirty_bytes.clear();
  if (plans->empty()) {
    next();
    return;
  }

  // Phase A: hole reads across all files; phase B: the merged writes.
  auto do_writes = [this, plans, next = std::move(next), &job]() mutable {
    JobState& jst = state_for(job);
    const std::uint32_t fan =
        fans_.open(static_cast<std::uint32_t>(plans->size()), std::move(next));
    for (const auto& fp : *plans) {
      for (const auto& w : fp.plan.writes) stats_.writeback_bytes += w.length;
      issue_batch(fp.file, fp.plan.writes, /*is_write=*/true,
                  jst.crm_context, nullptr, [this, fp, fan](fault::Status wst) {
                    if (fault::ok(wst)) {
                      // The flush landed: those cache ranges are clean now.
                      for (const auto& w : fp.plan.writes)
                        cache_.clear_dirty(fp.file, w);
                    } else {
                      // Flush failed: keep the data dirty so the next cycle
                      // (or the final flush) retries it — losing application
                      // writes is not an option.
                      ++stats_.writeback_retained;
                      ++stats_.aborted_batches;
                      if (auto* inj = env_.fs.fault_injector())
                        ++inj->counters().dualpar_aborted_batches;
                    }
                    note_batch_status(wst);
                    fans_.complete(fan);
                  });
    }
  };

  std::size_t hole_files = 0;
  for (const auto& fp : *plans)
    if (!fp.plan.hole_reads.empty()) ++hole_files;
  if (hole_files == 0) {
    do_writes();
    return;
  }
  const std::uint32_t hole_fan =
      fans_.open(static_cast<std::uint32_t>(hole_files), std::move(do_writes));
  for (const auto& fp : *plans) {
    if (fp.plan.hole_reads.empty()) continue;
    stats_.hole_read_bytes += fp.plan.hole_bytes;
    issue_batch(fp.file, fp.plan.hole_reads, /*is_write=*/false,
                st.crm_context, nullptr, [this, hole_fan](fault::Status hst) {
                  // A failed hole read degrades the merge (the write still
                  // covers the dirty ranges); record it and carry on.
                  note_batch_status(hst);
                  fans_.complete(hole_fan);
                });
  }
}

void DualParDriver::run_prefetch(mpi::Job& job, sim::UniqueFunction next) {
  JobState& st = state_for(job);
  // Union of all ghosts' predicted reads, grouped by file, plus the intended
  // cache placement of each touched chunk: the node of the process that will
  // consume it, so prefetched payloads land where they will be read.
  std::map<pfs::FileId, std::vector<pfs::Segment>> raw;
  auto homes = std::make_shared<
      std::map<pfs::FileId, std::map<std::uint64_t, net::NodeId>>>();
  const std::uint64_t chunk_bytes = cache_.params().chunk_bytes;
  for (const auto& [id, g] : st.ghosts) {
    for (const auto& call : g->predicted()) {
      for (const auto& s : call.segments) {
        raw[call.file].push_back(s);
        for (std::uint64_t c = s.offset / chunk_bytes; c <= (s.end() - 1) / chunk_bytes;
             ++c) {
          // Chunks consumed by a single node go to that node; chunks shared
          // across nodes keep the round-robin placement (no node is "the"
          // consumer, and pinning them would hotspot one NIC).
          auto [it, inserted] = (*homes)[call.file].emplace(c, g->node_id());
          if (!inserted && it->second != g->node_id()) it->second = cache::kAutoHome;
        }
      }
    }
  }
  if (raw.empty()) {
    next();
    return;
  }

  BatchOptions opt{params_.sort_batch, params_.merge_batch,
                   params_.fill_holes ? params_.hole_fill_max : 0};
  auto next_shared = std::make_shared<sim::UniqueFunction>(std::move(next));
  auto batches =
      std::make_shared<std::vector<std::pair<pfs::FileId, std::vector<pfs::Segment>>>>();
  // Files whose prefetch batch came back failed: nothing of theirs may enter
  // the cache (the payload never arrived), the readers fall back to direct
  // fetches on resume.
  auto failed = std::make_shared<std::set<pfs::FileId>>();
  auto on_all_done = [this, &job, next_shared, batches, homes, failed] {
    // Fill the cache with exact per-ghost attributions first (so the chunks
    // carry the prefetched flag for quota and mis-prefetch accounting), then
    // the merged remnants (absorbed holes) under the CRM context.
    JobState& jst = state_for(job);
    for (const auto& [id, g] : jst.ghosts) {
      for (const auto& call : g->predicted()) {
        if (failed->count(call.file)) continue;
        for (const auto& s : call.segments) {
          net::NodeId hint = cache::kAutoHome;
          const auto fit = homes->find(call.file);
          if (fit != homes->end()) {
            const auto cit = fit->second.find(s.offset / cache_.params().chunk_bytes);
            if (cit != fit->second.end()) hint = cit->second;
          }
          cache_.insert(call.file, s, g->owner(), /*prefetched=*/true, hint);
          jst.prev_prefetch_bytes += s.length;
          const std::uint64_t chunk = cache_.params().chunk_bytes;
          for (std::uint64_t c = s.offset / chunk; c <= (s.end() - 1) / chunk; ++c)
            jst.prev_chunks.push_back(cache::ChunkKey{call.file, c});
        }
      }
    }
    for (const auto& [f, batch] : *batches) {
      if (failed->count(f)) continue;
      for (const auto& s : batch) cache_.insert(f, s, jst.crm_context, false);
    }
    (*next_shared)();
  };
  const std::uint32_t fan =
      fans_.open(static_cast<std::uint32_t>(raw.size()), std::move(on_all_done));

  for (auto& [file, segs] : raw) {
    auto batch = build_read_batch(std::move(segs), opt);
    std::uint64_t batch_bytes = 0;
    for (const auto& s : batch) batch_bytes += s.length;
    stats_.prefetch_bytes += batch_bytes;
    const pfs::FileId f = file;
    batches->emplace_back(f, std::move(batch));
    const auto* file_homes = homes->count(f) ? &(*homes)[f] : nullptr;
    issue_batch(f, batches->back().second, /*is_write=*/false,
                st.crm_context, file_homes,
                [this, fan, failed, f](fault::Status pst) {
                  if (!fault::ok(pst)) {
                    failed->insert(f);
                    ++stats_.aborted_batches;
                    if (auto* inj = env_.fs.fault_injector())
                      ++inj->counters().dualpar_aborted_batches;
                  }
                  note_batch_status(pst);
                  fans_.complete(fan);
                });
  }
}

void DualParDriver::resume_all(mpi::Job& job) {
  JobState& st = state_for(job);
  auto pending = std::move(st.pending);
  st.pending.clear();
  st.ghosts.clear();
  st.cycle_active = false;

  for (auto& p : pending) {
    p.proc->set_suspended(false);
    if (p.write_hold) {
      p.done();
      continue;
    }
    bool covered = !p.call.segments.empty();
    for (const auto& s : p.call.segments)
      covered = covered && cache_.covers(p.call.file, s);
    if (covered) {
      serve_from_cache(*p.proc, p.call, std::move(p.done));
    } else {
      // Mis-predicted: serve directly from the file system (the call was
      // observed when it first arrived).
      stats_.miss_direct_bytes += p.call.total_bytes();
      raw_io(*p.proc, p.call, std::move(p.done));
    }
  }
}

void DualParDriver::final_flush(mpi::Job& job) {
  JobState& st = state_for(job);
  if (st.final_flush_done) return;
  st.final_flush_done = true;
  run_writeback(job, [] {});
}

}  // namespace dpar::dualpar
