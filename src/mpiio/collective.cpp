#include "mpiio/collective.hpp"

#include <algorithm>
#include <utility>

namespace dpar::mpiio {

namespace {

using Run = TwoPhaseScratch::Run;

bool by_offset(const pfs::Segment& a, const pfs::Segment& b) {
  return a.offset < b.offset;
}

/// Visit segment i of every run in run order, then segment i + 1, and so
/// on, while `fn(segment, column)` returns true; false if it stopped early.
/// Exhausted runs drop out of `live` (a working copy of `runs`), so the walk
/// costs O(segments + runs).
template <class Fn>
bool visit_interleaved(const std::vector<Run>& runs, std::vector<Run>& live, Fn&& fn) {
  live.assign(runs.begin(), runs.end());
  for (std::uint32_t i = 0; !live.empty(); ++i) {
    std::erase_if(live, [i](const Run& r) { return i >= r.size; });
    for (const Run& r : live)
      if (!fn(r.segs[i], r.col)) return false;
  }
  return true;
}

}  // namespace

void plan_two_phase(const std::vector<TwoPhaseRank>& ranks, bool is_write,
                    const CollectiveParams& params, TwoPhasePlan& plan,
                    TwoPhaseScratch& scratch) {
  plan.messages.clear();
  plan.shuffle_bytes = 0;
  std::uint64_t lo = UINT64_MAX, hi = 0, useful = 0;
  for (const auto& r : ranks) {
    for (const auto& s : *r.segments) {
      if (s.length == 0) continue;
      lo = std::min(lo, s.offset);
      hi = std::max(hi, s.end());
      useful += s.length;
    }
  }
  if (useful == 0) {
    plan.aggs.clear();
    return;
  }

  // Aggregators: one per distinct compute node hosting participants, by
  // node id, each using its first-listed rank's context. The distinct nodes
  // are also the columns of the traffic table.
  auto& by_node = scratch.by_node;
  auto& nodes = scratch.nodes;
  auto& column = scratch.column;
  by_node.resize(ranks.size());
  for (std::uint32_t i = 0; i < ranks.size(); ++i) by_node[i] = {ranks[i].node, i};
  std::sort(by_node.begin(), by_node.end());
  nodes.clear();
  column.resize(ranks.size());
  for (const auto& [node, i] : by_node) {
    if (nodes.empty() || nodes.back().first != node) nodes.emplace_back(node, i);
    column[i] = static_cast<std::uint32_t>(nodes.size() - 1);
  }
  const std::uint64_t nagg = nodes.size();
  plan.aggs.resize(nagg);  // kept aggregators keep their segment storage
  for (std::size_t a = 0; a < nagg; ++a) {
    TwoPhasePlan::Aggregator& agg = plan.aggs[a];
    agg.node = nodes[a].first;
    agg.context = ranks[nodes[a].second].context;
    agg.segs.clear();
  }
  const std::uint64_t ncols = nagg;  // every rank node is an aggregator
  const std::uint64_t domain = (hi - lo + nagg - 1) / nagg;

  // Pieces and payload per (aggregator, rank node), dense and row-major so
  // the message list comes out in (aggregator, node) order.
  auto& table = scratch.table;
  table.assign(nagg * ncols, TwoPhaseScratch::Cell{});

  // Split one segment over the file domains. A piece that starts inside or
  // at the end of its aggregator's last extent extends it; any other opens
  // a new one, so pieces arriving in ascending order coalesce as they land.
  // The last domain found is cached: consecutive pieces mostly share it,
  // and the division would otherwise dominate the split.
  std::uint64_t agg = 0, dom_lo = 1, dom_hi = 0;
  auto place = [&](const pfs::Segment& s, std::uint32_t col) {
    std::uint64_t off = s.offset, rem = s.length;
    while (rem > 0) {
      if (off < dom_lo || off >= dom_hi) {
        agg = std::min((off - lo) / domain, nagg - 1);
        dom_lo = lo + agg * domain;
        dom_hi = agg + 1 < nagg ? dom_lo + domain : UINT64_MAX;  // the last is open
      }
      const std::uint64_t take = std::min(rem, dom_hi - off);
      auto& segs = plan.aggs[agg].segs;
      if (!segs.empty() && segs.back().offset <= off && off <= segs.back().end()) {
        segs.back().length = std::max(segs.back().end(), off + take) - segs.back().offset;
      } else {
        segs.push_back(pfs::Segment{off, take});
      }
      TwoPhaseScratch::Cell& cell = table[agg * ncols + col];
      ++cell.pieces;
      cell.bytes += take;
      off += take;
      rem -= take;
    }
  };

  // Visit order. With the ranks' lists ordered by their first offset, the
  // two common collective layouts arrive ascending for free: interleaved
  // (segment i of every rank precedes segment i + 1 of any, e.g. BTIO's
  // rows; checked in one pass) and rank-major (each rank's block follows
  // the previous one's). Anything else is sorted below; the coalesced
  // union does not depend on the order.
  auto& runs = scratch.runs;
  runs.clear();
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const auto& segs = *ranks[i].segments;
    const auto first = std::find_if(segs.begin(), segs.end(),
                                    [](const pfs::Segment& s) { return s.length > 0; });
    if (first == segs.end()) continue;
    runs.push_back({first->offset, segs.data(), static_cast<std::uint32_t>(segs.size()),
                    column[i]});
  }
  std::sort(runs.begin(), runs.end(),
            [](const Run& x, const Run& y) { return x.head < y.head; });
  std::uint64_t prev = 0;
  auto ascends = [&prev](const pfs::Segment& s, std::uint32_t) {
    if (s.length == 0) return true;
    if (s.offset < prev) return false;
    prev = s.offset;
    return true;
  };
  if (visit_interleaved(runs, scratch.live, ascends)) {
    visit_interleaved(runs, scratch.live, [&](const pfs::Segment& s, std::uint32_t col) {
      place(s, col);
      return true;
    });
  } else {
    for (const Run& r : runs)
      for (std::uint32_t i = 0; i < r.size; ++i) place(r.segs[i], r.col);
  }

  // An ascending run list is already coalesced (each run was extended while
  // it was last); otherwise sort and coalesce it.
  for (auto& a : plan.aggs) {
    auto& segs = a.segs;
    if (std::is_sorted(segs.begin(), segs.end(), by_offset)) continue;
    std::sort(segs.begin(), segs.end(), by_offset);
    std::size_t n = 0;
    for (const auto& s : segs) {
      if (n > 0 && segs[n - 1].end() >= s.offset) {
        segs[n - 1].length = std::max(segs[n - 1].end(), s.end()) - segs[n - 1].offset;
      } else {
        segs[n++] = s;
      }
    }
    segs.resize(n);
  }

  // Data sieving decision per aggregator. Only reads sieve: a write goes out
  // as list I/O, as ROMIO's does on PVFS2.
  for (auto& a : plan.aggs) {
    if (is_write || a.segs.size() <= 1) continue;
    const std::uint64_t span = a.segs.back().end() - a.segs.front().offset;
    std::uint64_t use = 0;
    for (const auto& s : a.segs) use += s.length;
    const bool dense = span <= params.sieve_buffer &&
                       static_cast<double>(use) / static_cast<double>(span) >=
                           params.sieve_min_density;
    if (!dense) continue;
    a.segs.front().length = span;
    a.segs.resize(1);
  }

  for (std::uint64_t a = 0; a < nagg; ++a) {
    for (std::uint64_t c = 0; c < ncols; ++c) {
      const TwoPhaseScratch::Cell& cell = table[a * ncols + c];
      if (cell.pieces == 0) continue;
      std::uint64_t request = 64 + 16 * cell.pieces;
      if (is_write) request += cell.bytes;  // ship payload with descriptors
      plan.messages.push_back({nodes[c].first, plan.aggs[a].node, request, cell.bytes});
      plan.shuffle_bytes += cell.bytes;
    }
  }
}

void CollectiveDriver::io(mpi::Process& proc, const mpi::IoCall& call,
                          sim::UniqueFunction done) {
  if (!call.collective) {
    VanillaDriver::io(proc, call, std::move(done));
    return;
  }
  if (env_.observer)
    env_.observer->observe(proc.job().id(), call.file, call.segments,
                           env_.fs.engine().now());
  Epoch& epoch = epoch_for(proc.job());
  epoch.entries.push_back(Entry{&proc, &call, std::move(done)});
  if (epoch.entries.size() >= proc.job().nprocs() - epoch.finished) run_round(epoch);
}

void CollectiveDriver::on_process_end(mpi::Process& proc) {
  // A rank finishing can complete a pending round (remaining live ranks all
  // arrived already).
  Epoch& epoch = epoch_for(proc.job());
  ++epoch.finished;
  const std::uint32_t live = proc.job().nprocs() - epoch.finished;
  if (!epoch.entries.empty() && epoch.entries.size() >= live && live > 0)
    run_round(epoch);
}

CollectiveDriver::Epoch& CollectiveDriver::epoch_for(mpi::Job& job) {
  if (job.id() >= epochs_.size()) epochs_.resize(job.id() + 1);
  return epochs_[job.id()];
}

void CollectiveDriver::run_round(Epoch& epoch) {
  ++rounds_;
  const std::uint32_t slot = round_pool_.acquire();
  Round& r = round_pool_.at(slot);
  // The epoch takes the slot's drained entry list in exchange.
  r.entries.swap(epoch.entries);

  // One target file per round (benchmarks obey this, and ROMIO plans per
  // file handle anyway).
  r.file = r.entries[0].call->file;
  r.is_write = r.entries[0].call->is_write;
  ranks_.clear();
  for (const auto& e : r.entries)
    ranks_.push_back({e.proc->node().id(), e.proc->global_id(), &e.call->segments});
  plan_two_phase(ranks_, r.is_write, params_, r.plan, scratch_);

  if (r.plan.aggs.empty()) {  // nothing to move; release everyone after a barrier hop
    r.cpu = sim::usec(100);
    finish_round_(slot);
    return;
  }

  // Exchange bookkeeping CPU: every rank packs/unpacks state that grows with
  // the participant count.
  r.cpu = params_.exchange_cpu_per_rank * static_cast<sim::Time>(r.entries.size());

  // Phase 1: metadata exchange (everyone ships request lists to aggregators),
  // plus, for writes, the data shuffle owner -> aggregator.
  if (r.is_write) shuffle_bytes_ += r.plan.shuffle_bytes;
  r.pending = r.plan.messages.size();
  if (r.pending == 0) {
    aggregate_io_(slot);
    return;
  }
  for (const auto& m : r.plan.messages) {
    env_.net.send(m.rank_node, m.agg_node, m.request_bytes, sim::inline_fn([this, slot] {
                    if (--round_pool_.at(slot).pending == 0) aggregate_io_(slot);
                  }));
  }
}

void CollectiveDriver::aggregate_io_(std::uint32_t slot) {
  Round& r = round_pool_.at(slot);
  r.pending = 0;
  for (const auto& a : r.plan.aggs)
    if (!a.segs.empty()) ++r.pending;
  if (r.pending == 0) {
    finish_round_(slot);
    return;
  }
  for (std::size_t i = 0; i < r.plan.aggs.size(); ++i) {
    const TwoPhasePlan::Aggregator& a = r.plan.aggs[i];
    if (a.segs.empty()) continue;
    env_.clients.for_node(a.node).io(
        r.file, a.segs, r.is_write, a.context,
        sim::inline_fn([this, slot](std::uint64_t, fault::Status st) {
          note_io_status(env_, st);
          after_aggregate_io_(slot);
        }));
  }
}

void CollectiveDriver::after_aggregate_io_(std::uint32_t slot) {
  Round& r = round_pool_.at(slot);
  if (--r.pending > 0) return;
  if (r.is_write) {  // data travelled before the write; just release
    finish_round_(slot);
    return;
  }
  // Read shuffle: aggregators scatter data to owner ranks.
  r.pending = r.plan.messages.size();
  if (r.pending == 0) {
    finish_round_(slot);
    return;
  }
  shuffle_bytes_ += r.plan.shuffle_bytes;
  for (const auto& m : r.plan.messages) {
    env_.net.send(m.agg_node, m.rank_node, m.payload_bytes, sim::inline_fn([this, slot] {
                    if (--round_pool_.at(slot).pending == 0) finish_round_(slot);
                  }));
  }
}

void CollectiveDriver::finish_round_(std::uint32_t slot) {
  // One completion event per collective round instead of one per rank;
  // consecutive sequence numbers cannot interleave, so order is unchanged.
  // A resumed rank may start the next round from inside the loop; that
  // round takes another slot, since this one is released only after it.
  env_.fs.engine().after(round_pool_.at(slot).cpu, sim::inline_fn([this, slot] {
    Round& r = round_pool_.at(slot);
    for (Entry& e : r.entries) e.done();
    r.entries.clear();
    round_pool_.release(slot);
  }));
}

}  // namespace dpar::mpiio
