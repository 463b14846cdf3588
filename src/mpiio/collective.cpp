#include "mpiio/collective.hpp"

#include <algorithm>
#include <utility>

namespace dpar::mpiio {

namespace {

bool by_offset(const pfs::Segment& a, const pfs::Segment& b) {
  return a.offset < b.offset;
}

/// One rank's segment list, keyed by its first nonempty offset.
struct Run {
  std::uint64_t head;
  const pfs::Segment* segs;
  std::uint32_t size;
  std::uint32_t col;  ///< traffic-table column of the rank's node
};

/// Visit segment i of every run in run order, then segment i + 1, and so
/// on, while `fn(segment, column)` returns true; false if it stopped early.
/// Exhausted runs drop out, so the walk costs O(segments + runs).
template <class Fn>
bool visit_interleaved(std::vector<Run> runs, Fn&& fn) {
  for (std::uint32_t i = 0; !runs.empty(); ++i) {
    std::erase_if(runs, [i](const Run& r) { return i >= r.size; });
    for (const Run& r : runs)
      if (!fn(r.segs[i], r.col)) return false;
  }
  return true;
}

}  // namespace

TwoPhasePlan plan_two_phase(const std::vector<TwoPhaseRank>& ranks, bool is_write,
                            const CollectiveParams& params) {
  TwoPhasePlan plan;
  std::uint64_t lo = UINT64_MAX, hi = 0, useful = 0;
  for (const auto& r : ranks) {
    for (const auto& s : *r.segments) {
      if (s.length == 0) continue;
      lo = std::min(lo, s.offset);
      hi = std::max(hi, s.end());
      useful += s.length;
    }
  }
  if (useful == 0) return plan;

  // Aggregators: one per distinct compute node hosting participants, by
  // node id, each using its first-listed rank's context. The distinct nodes
  // are also the columns of the traffic table.
  std::vector<std::pair<net::NodeId, std::uint32_t>> by_node(ranks.size());
  for (std::uint32_t i = 0; i < ranks.size(); ++i) by_node[i] = {ranks[i].node, i};
  std::sort(by_node.begin(), by_node.end());
  std::vector<net::NodeId> nodes;
  std::vector<std::uint32_t> column(ranks.size());
  for (const auto& [node, i] : by_node) {
    if (nodes.empty() || nodes.back() != node) {
      nodes.push_back(node);
      plan.aggs.push_back({node, ranks[i].context, {}});
    }
    column[i] = static_cast<std::uint32_t>(nodes.size() - 1);
  }
  if (params.max_aggregators > 0 && plan.aggs.size() > params.max_aggregators)
    plan.aggs.resize(params.max_aggregators);
  const std::uint64_t nagg = plan.aggs.size();
  const std::uint64_t ncols = nodes.size();
  const std::uint64_t domain = (hi - lo + nagg - 1) / nagg;

  // Pieces and payload per (aggregator, rank node), dense and row-major so
  // the message list comes out in (aggregator, node) order.
  struct Cell {
    std::uint64_t pieces = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<Cell> table(nagg * ncols);

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
      Cell& cell = table[agg * ncols + col];
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
  std::vector<Run> runs;
  runs.reserve(ranks.size());
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
  if (visit_interleaved(runs, ascends)) {
    visit_interleaved(std::move(runs), [&](const pfs::Segment& s, std::uint32_t col) {
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

  // Data sieving decision per aggregator.
  for (auto& a : plan.aggs) {
    if (a.segs.size() <= 1) continue;
    const std::uint64_t span = a.segs.back().end() - a.segs.front().offset;
    std::uint64_t use = 0;
    for (const auto& s : a.segs) use += s.length;
    const bool dense = span <= params.sieve_buffer &&
                       static_cast<double>(use) / static_cast<double>(span) >=
                           params.sieve_min_density;
    if (!dense) continue;
    if (!is_write) {
      a.segs = {pfs::Segment{a.segs.front().offset, span}};
    } else if (params.write_sieving) {
      // RMW: the whole span is read first, then written back patched.
      a.segs = {pfs::Segment{a.segs.front().offset, span}};
      a.rmw = true;
    }
  }

  for (std::uint64_t a = 0; a < nagg; ++a) {
    for (std::uint64_t c = 0; c < ncols; ++c) {
      const Cell& cell = table[a * ncols + c];
      if (cell.pieces == 0) continue;
      std::uint64_t request = 64 + 16 * cell.pieces;
      if (is_write) request += cell.bytes;  // ship payload with descriptors
      plan.messages.push_back({nodes[c], plan.aggs[a].node, request, cell.bytes});
      plan.shuffle_bytes += cell.bytes;
    }
  }
  return plan;
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
  Epoch& epoch = epochs_[proc.job().id()];
  epoch.entries.push_back(Entry{&proc, &call, std::move(done)});
  if (epoch.entries.size() >= proc.job().nprocs() - epoch.finished)
    run_round(proc.job().id());
}

void CollectiveDriver::on_process_end(mpi::Process& proc) {
  // A rank finishing can complete a pending round (remaining live ranks all
  // arrived already).
  Epoch& epoch = epochs_[proc.job().id()];
  ++epoch.finished;
  const std::uint32_t live = proc.job().nprocs() - epoch.finished;
  if (!epoch.entries.empty() && epoch.entries.size() >= live && live > 0)
    run_round(proc.job().id());
}

void CollectiveDriver::run_round(std::uint32_t job_id) {
  ++rounds_;
  auto r = std::make_shared<Round>();
  r->entries = std::move(epochs_[job_id].entries);
  epochs_[job_id].entries.clear();
  sim::Engine& eng = env_.fs.engine();

  // One target file per round (benchmarks obey this, and ROMIO plans per
  // file handle anyway).
  r->file = r->entries[0].call->file;
  r->is_write = r->entries[0].call->is_write;
  std::vector<TwoPhaseRank> ranks;
  ranks.reserve(r->entries.size());
  for (const auto& e : r->entries)
    ranks.push_back({e.proc->node().id(), e.proc->global_id(), &e.call->segments});
  r->plan = plan_two_phase(ranks, r->is_write, params_);

  if (r->plan.aggs.empty()) {  // nothing to move; release everyone after a barrier hop
    std::vector<sim::UniqueFunction> dones;
    dones.reserve(r->entries.size());
    for (auto& e : r->entries) dones.push_back(std::move(e.done));
    eng.after_all(sim::usec(100), std::move(dones));
    return;
  }

  // Exchange bookkeeping CPU: every rank packs/unpacks state that grows with
  // the participant count.
  r->cpu = params_.exchange_cpu_per_rank * static_cast<sim::Time>(r->entries.size());

  // Phase 1: metadata exchange (everyone ships request lists to aggregators),
  // plus, for writes, the data shuffle owner -> aggregator.
  if (r->is_write) shuffle_bytes_ += r->plan.shuffle_bytes;
  r->pending = r->plan.messages.size();
  if (r->pending == 0) {
    aggregate_io_(r);
    return;
  }
  for (const auto& m : r->plan.messages) {
    env_.net.send(m.rank_node, m.agg_node, m.request_bytes, [this, r] {
      if (--r->pending == 0) aggregate_io_(r);
    });
  }
}

void CollectiveDriver::aggregate_io_(const std::shared_ptr<Round>& r) {
  r->pending = 0;
  for (const auto& a : r->plan.aggs)
    if (!a.segs.empty()) ++r->pending;
  if (r->pending == 0) {
    finish_round_(*r);
    return;
  }
  for (const auto& a : r->plan.aggs) {
    if (a.segs.empty()) continue;
    pfs::Client& client = env_.clients.for_node(a.node);
    if (a.rmw) {
      // Write sieving: fetch the span, patch in memory, write it back.
      client.io(r->file, a.segs, /*is_write=*/false, a.context,
                [this, r, &client, &a](std::uint64_t, fault::Status st) {
                  note_io_status(env_, st);
                  client.io(r->file, a.segs, /*is_write=*/true, a.context,
                            [this, r](std::uint64_t, fault::Status wst) {
                              note_io_status(env_, wst);
                              after_aggregate_io_(r);
                            });
                });
    } else {
      client.io(r->file, a.segs, r->is_write, a.context,
                [this, r](std::uint64_t, fault::Status st) {
                  note_io_status(env_, st);
                  after_aggregate_io_(r);
                });
    }
  }
}

void CollectiveDriver::after_aggregate_io_(const std::shared_ptr<Round>& r) {
  if (--r->pending > 0) return;
  if (r->is_write) {  // data travelled before the write; just release
    finish_round_(*r);
    return;
  }
  // Read shuffle: aggregators scatter data to owner ranks.
  r->pending = r->plan.messages.size();
  if (r->pending == 0) {
    finish_round_(*r);
    return;
  }
  shuffle_bytes_ += r->plan.shuffle_bytes;
  for (const auto& m : r->plan.messages) {
    env_.net.send(m.agg_node, m.rank_node, m.payload_bytes, [this, r] {
      if (--r->pending == 0) finish_round_(*r);
    });
  }
}

void CollectiveDriver::finish_round_(Round& r) {
  // One completion event per collective round instead of one per rank;
  // consecutive sequence numbers cannot interleave, so order is unchanged.
  std::vector<sim::UniqueFunction> dones;
  dones.reserve(r.entries.size());
  for (auto& e : r.entries) dones.push_back(std::move(e.done));
  env_.fs.engine().after_all(r.cpu, std::move(dones));
}

}  // namespace dpar::mpiio
