#include "dualpar/emc.hpp"

#include <algorithm>
#include <stdexcept>

#include "disk/request.hpp"
#include "dualpar/crm.hpp"
#include "sim/debug.hpp"

namespace dpar::dualpar {

Emc::Emc(sim::Engine& eng, Params params, std::vector<pfs::DataServer*> servers)
    : eng_(eng), params_(params), servers_(std::move(servers)) {}

Emc::JobEntry* Emc::find_job(std::uint32_t job_id) {
  if (job_id >= slot_of_.size() || slot_of_[job_id] == 0) return nullptr;
  return &entries_[slot_of_[job_id] - 1];
}

const Emc::JobEntry* Emc::find_job(std::uint32_t job_id) const {
  if (job_id >= slot_of_.size() || slot_of_[job_id] == 0) return nullptr;
  return &entries_[slot_of_[job_id] - 1];
}

void Emc::register_job(mpi::Job& job, Policy policy) {
  JobEntry e;
  e.id = job.id();
  e.job = &job;
  e.policy = policy;
  switch (policy) {
    case Policy::kForcedDataDriven: e.mode = Mode::kDataDriven; break;
    default: e.mode = Mode::kNormal; break;
  }
  // Registration is rare (once per job); sorted insertion keeps tick()'s
  // iteration in ascending id order. Re-registering an id replaces it.
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), e.id,
      [](const JobEntry& a, std::uint32_t id) { return a.id < id; });
  if (it != entries_.end() && it->id == e.id) {
    *it = std::move(e);
  } else {
    it = entries_.insert(it, std::move(e));
  }
  if (slot_of_.size() <= entries_.back().id) slot_of_.resize(entries_.back().id + 1, 0);
  // Indices at and after the insertion point shifted by one.
  for (auto j = it; j != entries_.end(); ++j)
    slot_of_[j->id] = static_cast<std::uint32_t>(j - entries_.begin()) + 1;
  DPAR_IF_CHECKING(check_invariants());
}

void Emc::check_invariants() const {
  // The flat job vector and the id -> slot side table must agree exactly:
  // entries ascending by id (tick()'s float-accumulation order), every entry
  // reachable through its slot, and no slot pointing at a foreign entry.
  std::size_t mapped = 0;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0)
      DPAR_ASSERT(entries_[i - 1].id < entries_[i].id,
                  "EMC: job entries not in strictly ascending id order");
    DPAR_ASSERT(entries_[i].id < slot_of_.size(),
                "EMC: job id beyond the slot table");
    DPAR_ASSERT(slot_of_[entries_[i].id] == i + 1,
                "EMC: id -> slot index disagrees with the flat job vector");
  }
  for (std::uint32_t slot : slot_of_)
    if (slot != 0) {
      ++mapped;
      DPAR_ASSERT(slot <= entries_.size(), "EMC: slot table points past entries");
    }
  DPAR_ASSERT(mapped == entries_.size(),
              "EMC: slot table maps a different number of jobs than exist");
}

Mode Emc::mode(std::uint32_t job_id) const {
  // Degraded mode trumps everything, forced policies included: with a server
  // down or the error rate past the threshold, batching half the cluster's
  // data behind one CRM cycle only multiplies the blast radius of the next
  // fault. Every job runs vanilla until the cluster recovers.
  if (degraded_) return Mode::kNormal;
  const JobEntry* e = find_job(job_id);
  if (e == nullptr || e->latched) return Mode::kNormal;
  return e->mode;
}

const sim::TimeSeries& Emc::mode_series(std::uint32_t job_id) const {
  const JobEntry* e = find_job(job_id);
  if (e == nullptr) throw std::out_of_range("Emc::mode_series: unknown job");
  return e->mode_series;
}

void Emc::report_io_error() {
  error_ewma_ = params_.fault_error_alpha +
                (1.0 - params_.fault_error_alpha) * error_ewma_;
  update_degraded();
}

void Emc::report_io_ok() {
  // Only meaningful while the fault machinery is live; fault-free runs never
  // call in here, so the fast path stays untouched.
  error_ewma_ = (1.0 - params_.fault_error_alpha) * error_ewma_;
  update_degraded();
}

void Emc::note_server_state(std::uint32_t, bool down) {
  if (down) {
    ++servers_down_;
  } else if (servers_down_ > 0) {
    --servers_down_;
  }
  update_degraded();
}

void Emc::update_degraded() {
  if (!degraded_) {
    if (servers_down_ > 0 || error_ewma_ > params_.fault_degrade_threshold) {
      degraded_ = true;
      if (injector_) ++injector_->counters().emc_degraded_entries;
    }
    return;
  }
  // Hysteresis: re-engage only once every server is back and the error EWMA
  // has decayed well below the entry threshold.
  if (servers_down_ == 0 && error_ewma_ < params_.fault_resume_threshold) {
    degraded_ = false;
    if (injector_) ++injector_->counters().emc_degraded_exits;
  }
}

void Emc::report_misprefetch(std::uint32_t job_id, double ratio) {
  JobEntry* e = find_job(job_id);
  if (e == nullptr) return;
  e->misprefetch.add(ratio);
  if (e->misprefetch.value() > params_.misprefetch_threshold &&
      e->policy != Policy::kForcedNormal) {
    // "A large mis-prefetching miss ratio will turn off the data-driven mode
    // ... this is a one-time overhead" — latch the job to normal.
    e->latched = true;
    e->mode_series.add(eng_.now(), 0.0);
  }
}

bool Emc::latched_off(std::uint32_t job_id) const {
  const JobEntry* e = find_job(job_id);
  return e != nullptr && e->latched;
}

Emc::OffsetSpan& Emc::span_of(FileSpans& spans, pfs::FileId file) {
  auto it = std::lower_bound(spans.begin(), spans.end(), file,
                             [](const auto& p, pfs::FileId f) { return p.first < f; });
  if (it == spans.end() || it->first != file) it = spans.insert(it, {file, {}});
  return it->second;
}

void Emc::observe(std::uint32_t job_id, pfs::FileId file,
                  const std::vector<pfs::Segment>& segments, sim::Time) {
  JobEntry* e = find_job(job_id);
  if (segments.empty() || e == nullptr) return;
  OffsetSpan& span = span_of(e->slot_spans, file);
  for (const pfs::Segment& s : segments) {
    span.lo = std::min(span.lo, s.offset);
    span.hi = std::max(span.hi, s.offset);
  }
  span.n += segments.size();
}

void Emc::start() {
  if (ticking_) return;
  ticking_ = true;
  eng_.after(params_.emc_slot, [this] {
    ticking_ = false;
    tick();
    // Keep evaluating while any registered job is live.
    const bool live = std::any_of(entries_.begin(), entries_.end(), [](const auto& e) {
      return !e.job->finished();
    });
    if (live) start();
  });
}

void Emc::tick() {
  const sim::Time now = eng_.now();

  // Server-side: mean seek distance of the last completed slot, in bytes.
  double seek_sum = 0.0;
  std::uint32_t seek_n = 0;
  for (pfs::DataServer* s : servers_) {
    const double d = s->trace().slot_seek_distance(now);
    if (d > 0.0 || s->trace().dispatches() > 0) {
      seek_sum += d * static_cast<double>(disk::kSectorBytes);
      ++seek_n;
    }
  }
  last_seek_ = seek_n ? seek_sum / seek_n : 0.0;
  seek_series_.add(now, last_seek_);

  // Client-side: per-job ReqDist and I/O ratio.
  double req_sum = 0.0;
  std::uint32_t req_n = 0;
  for (JobEntry& e : entries_) {
    double job_sum = 0.0;
    std::uint32_t job_n = 0;
    for (auto& [file, span] : e.slot_spans) {
      if (span.n >= 2) {
        job_sum += mean_adjacent_distance(span.lo, span.hi, span.n);
        ++job_n;
      }
      span = OffsetSpan{};
    }
    if (job_n > 0) {
      req_sum += job_sum / job_n;
      ++req_n;
    }
    // I/O ratio over the last slot.
    const sim::Time io = e.job->total_io_time();
    const sim::Time comp = e.job->total_compute_time();
    const sim::Time dio = io - e.prev_io;
    const sim::Time dcomp = comp - e.prev_compute;
    e.prev_io = io;
    e.prev_compute = comp;
    if (dio + dcomp > 0)
      e.io_ratio = static_cast<double>(dio) / static_cast<double>(dio + dcomp);
  }
  last_req_ = req_n ? req_sum / req_n : 0.0;
  last_ratio_ = last_req_ > 0.0 ? last_seek_ / last_req_ : 0.0;

  // Mode decisions, with confirmation slots and a minimum dwell so the
  // controller does not flap (the data-driven mode's own effect on seek
  // distances would immediately disqualify it again).
  for (JobEntry& e : entries_) {
    if (e.policy != Policy::kAdaptive || e.latched || e.job->finished()) continue;
    const Mode want = (last_ratio_ > params_.t_improvement &&
                       e.io_ratio > params_.io_ratio_threshold)
                          ? Mode::kDataDriven
                          : Mode::kNormal;
    if (want == e.mode) {
      e.agree_slots = 0;
      continue;
    }
    if (++e.agree_slots < params_.emc_confirm_slots) continue;
    if (now - e.last_switch < params_.emc_min_dwell && e.last_switch > 0) continue;
    e.mode = want;
    e.agree_slots = 0;
    e.last_switch = now;
    ++switches_;
    e.mode_series.add(now, want == Mode::kDataDriven ? 1.0 : 0.0);
  }
}

}  // namespace dpar::dualpar
