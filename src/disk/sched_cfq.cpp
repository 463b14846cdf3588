// CFQ (completely fair queueing) disk scheduler model.
//
// The behaviours that matter for the paper's argument (§II, Figs 1c/1d):
//  * one sector-sorted queue per I/O context, served round-robin with a time
//    slice, so interleaved streams from many processes cause head movement on
//    every context switch;
//  * anticipatory idling: after a context's queue drains mid-slice the disk
//    waits slice_idle for the next request from the same context — but only
//    when the context's observed think time makes that worthwhile (Linux
//    CFQ's ttime heuristic), so batch-synchronous MPI processes whose next
//    request is a full barrier round away get no idling;
//  * within a context, requests are served in ascending-sector elevator order
//    from the current head, so a single deep pre-sorted queue (DualPar's
//    prefetch batch) streams near-sequentially.
//
// Flat layout: per-context state lives in an open-addressed ContextTable
// (was std::map) and each context's queue is a SortedRunQueue (was
// std::multimap). tests/oracles/sched_reference.cpp keeps the map-based
// original as the differential oracle.
#include <cstdint>
#include <utility>

#include "disk/scheduler.hpp"
#include "disk/sorted_queue.hpp"
#include "sim/stats.hpp"

namespace dpar::disk {
namespace {

class CfqScheduler final : public IoScheduler {
 public:
  explicit CfqScheduler(CfqParams p) : p_(p) {}

  void enqueue(Request r, sim::Time now) override {
    Context& ctx = contexts_.find_or_insert(r.context);
    if (ctx.queue.empty() && !ctx.in_rr) {
      rr_.push_back(r.context);
      ctx.in_rr = true;
    }
    // Think time: gap between this context's last completion and the next
    // request from it.
    if (ctx.last_completion >= 0 && ctx.queue.empty())
      ctx.think_time.add(static_cast<double>(now - ctx.last_completion));
    ctx.queue.insert(std::move(r));
    ++pending_;
  }

  Decision next(std::uint64_t head_lba, sim::Time now) override {
    if (pending_ == 0 && active_ == kNone) return Decision::idle();

    if (active_ != kNone) {
      Context& ctx = *contexts_.find(active_);
      if (!ctx.queue.empty() && now < slice_end_) return dispatch_from(ctx, head_lba);
      if (ctx.queue.empty() && now < slice_end_ && should_idle(ctx)) {
        const sim::Time deadline = std::min(slice_end_, idle_started_ + p_.slice_idle);
        if (now < deadline) return Decision::wait(deadline);
      }
      expire_active();
    }

    // Pick the next context with work, round-robin.
    while (!rr_.empty()) {
      const std::uint64_t id = rr_.pop_front();
      Context& ctx = *contexts_.find(id);
      ctx.in_rr = false;
      if (ctx.queue.empty()) continue;
      active_ = id;
      slice_end_ = now + p_.slice_sync;
      return dispatch_from(ctx, head_lba);
    }
    return Decision::idle();
  }

  void completed(const Request& r, sim::Time now) override {
    Context* ctx = contexts_.find(r.context);
    if (ctx == nullptr) return;
    ctx->last_completion = now;
    // The anticipation window starts when the context goes idle with slice
    // time remaining.
    if (r.context == active_ && ctx->queue.empty()) idle_started_ = now;
  }

  std::size_t pending() const override { return pending_; }
  std::string name() const override { return "cfq"; }

 private:
  static constexpr std::uint64_t kNone = UINT64_MAX;

  struct Context {
    SortedRunQueue queue;  // sector-sorted
    sim::Time last_completion = -1;
    sim::Ewma think_time{0.3};
    bool in_rr = false;
  };

  bool should_idle(const Context& ctx) const {
    if (!ctx.think_time.has_value()) return true;  // optimistic at first
    return ctx.think_time.value() <= static_cast<double>(p_.slice_idle);
  }

  Decision dispatch_from(Context& ctx, std::uint64_t head_lba) {
    // Elevator within the context: first request at or above the head,
    // else lowest (one-directional sweep with wrap).
    --pending_;
    return Decision::dispatch(ctx.queue.take(ctx.queue.pick(head_lba)));
  }

  void expire_active() {
    Context& ctx = *contexts_.find(active_);
    if (!ctx.queue.empty() && !ctx.in_rr) {
      rr_.push_back(active_);
      ctx.in_rr = true;
    }
    active_ = kNone;
  }

  CfqParams p_;
  ContextTable<Context> contexts_;
  sim::SlotFifo<std::uint64_t> rr_;
  std::uint64_t active_ = kNone;
  sim::Time slice_end_ = 0;
  sim::Time idle_started_ = 0;
  std::size_t pending_ = 0;
};

}  // namespace

std::unique_ptr<IoScheduler> make_cfq_scheduler(CfqParams p) {
  return std::make_unique<CfqScheduler>(p);
}

}  // namespace dpar::disk
