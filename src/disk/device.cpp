#include "disk/device.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "fault/injector.hpp"

namespace dpar::disk {

DiskDevice::DiskDevice(sim::Engine& eng, DiskParams params,
                       std::unique_ptr<IoScheduler> sched)
    : eng_(eng), model_(params), sched_(std::move(sched)) {}

void DiskDevice::submit(Request r) {
  r.arrival = eng_.now();
  sched_->enqueue(std::move(r), eng_.now());
  if (busy_) return;
  // A new arrival interrupts any anticipation wait so the scheduler can
  // reconsider immediately.
  if (wait_event_) {
    eng_.cancel(wait_event_);
    wait_event_ = {};
  }
  poll();
}

void DiskDevice::poll() {
  if (busy_) return;
  wait_event_ = {};
  Decision d = sched_->next(model_.head(), eng_.now());
  switch (d.kind) {
    case Decision::Kind::kIdle:
      return;
    case Decision::Kind::kWaitUntil: {
      // Anticipatory idling: stay put, revisit at the deadline.
      if (d.wait_until <= eng_.now()) return;  // defensive; treat as idle
      wait_event_ = eng_.at(d.wait_until, [this] { poll(); });
      return;
    }
    case Decision::Kind::kDispatch: {
      Request req = std::move(d.request);
      TraceEvent ev;
      ev.time = eng_.now();
      ev.lba = req.lba;
      ev.sectors = req.sectors;
      ev.is_write = req.is_write;
      ev.context = req.context;
      ev.seek_distance = model_.seek_distance(req.lba);
      trace_.record(ev);

      sim::Time t = model_.serve(req.lba, req.sectors);
      fault::Status st = fault::Status::kOk;
      if (injector_) {
        // Even a failing request occupies the drive for its full service time
        // (the head travels and the drive retries internally before giving up).
        const auto v = injector_->disk_verdict(owner_, req.lba, req.sectors);
        st = v.status;
        t += v.stall;
      }
      busy_ = true;
      busy_time_ += t;
      ++served_;
      bytes_ += req.bytes();
      inflight_ = std::move(req);
      inflight_status_ = st;
      eng_.after(t, sim::inline_fn([this] {
        busy_ = false;
        // Move out first: the completion may re-enter submit()/poll() and
        // dispatch the next request into inflight_.
        Request done_req = std::move(inflight_);
        const fault::Status st = inflight_status_;
        sched_->completed(done_req, eng_.now());
        if (done_req.done) done_req.done(st);
        poll();
      }));
      return;
    }
  }
}

Raid0Device::Raid0Device(sim::Engine& eng, DiskParams params,
                         std::unique_ptr<IoScheduler> s0,
                         std::unique_ptr<IoScheduler> s1, std::uint64_t chunk_sectors)
    : d0_(eng, params, std::move(s0)),
      d1_(eng, params, std::move(s1)),
      chunk_sectors_(chunk_sectors) {}

std::uint64_t Raid0Device::capacity_sectors() const {
  return d0_.capacity_sectors() + d1_.capacity_sectors();
}

void Raid0Device::submit(Request r) {
  // Split the logical request into per-chunk pieces, map each chunk to a
  // member disk, and coalesce adjacent pieces that land on the same member.
  pieces_.clear();
  // Index of the last piece per member, to coalesce member-adjacent chunks
  // even though they alternate in logical order.
  int last_piece[2] = {-1, -1};
  std::uint64_t lba = r.lba;
  std::uint64_t remaining = r.sectors;
  while (remaining > 0) {
    const std::uint64_t chunk = lba / chunk_sectors_;
    const std::uint64_t within = lba % chunk_sectors_;
    const std::uint64_t take = std::min(remaining, chunk_sectors_ - within);
    const int member = static_cast<int>(chunk % 2);
    // Member-local address: chunk index within the member, same offset.
    const std::uint64_t mlba = (chunk / 2) * chunk_sectors_ + within;
    if (last_piece[member] >= 0) {
      Piece& prev = pieces_[static_cast<std::size_t>(last_piece[member])];
      if (prev.lba + prev.sectors == mlba) {
        prev.sectors += take;
        lba += take;
        remaining -= take;
        continue;
      }
    }
    last_piece[member] = static_cast<int>(pieces_.size());
    pieces_.push_back(Piece{member, mlba, take});
    lba += take;
    remaining -= take;
  }

  if (pieces_.empty()) {
    if (r.done) r.done(fault::Status::kOk);
    return;
  }
  if (pieces_.size() == 1) {
    // The whole request lands on one member: it goes down as is, remapped,
    // and completes straight into its own callback.
    const Piece p = pieces_.front();
    r.id = next_id_++;
    r.lba = p.lba;
    r.sectors = static_cast<std::uint32_t>(p.sectors);
    member(p.member).submit(std::move(r));
    return;
  }
  const std::uint32_t fan =
      fans_.open(static_cast<std::uint32_t>(pieces_.size()), std::move(r.done));
  for (const Piece& p : pieces_) {
    Request sub;
    sub.id = next_id_++;
    sub.lba = p.lba;
    sub.sectors = static_cast<std::uint32_t>(p.sectors);
    sub.is_write = r.is_write;
    sub.context = r.context;
    sub.done = sim::inline_fn(
        [this, fan](fault::Status st) { fault::complete_status(fans_, fan, st); });
    member(p.member).submit(std::move(sub));
  }
}

}  // namespace dpar::disk
