// ROMIO-style two-phase collective I/O (§III-A, the paper's main comparator).
//
// All ranks synchronize at each collective call. The union of the call's
// accessed extent is partitioned into contiguous *file domains*, one per
// aggregator (one aggregator per compute node, ROMIO's default). Each rank
// ships its request metadata to the aggregators owning parts of its data;
// aggregators perform data sieving within their domain (one contiguous
// request when hole waste is acceptable, exact list I/O otherwise); finally
// data is shuffled between aggregators and owner ranks over the network.
// The metadata and shuffle traffic grows with the process count, which is
// why collective I/O loses ground at 256 processes in Fig 4.
//
// The simulator's cost for one round is linear in its segments for the
// common layouts. Pieces land in ascending order and coalesce as they go.
// Traffic sums go into a dense (aggregator x node) table. Rounds, plans and
// the planner's scratch are pooled in the driver, so a steady run of rounds
// allocates nothing.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mpi/job.hpp"
#include "mpiio/env.hpp"
#include "mpiio/vanilla.hpp"

namespace dpar::mpiio {

struct CollectiveParams {
  std::uint64_t sieve_buffer = 4ull << 20;  ///< max sieved contiguous read
  /// Sieve only when useful bytes / span >= this fraction.
  double sieve_min_density = 0.4;
  /// Per-rank CPU cost of the exchange bookkeeping, per participating rank
  /// (memcpy/pack/unpack of flattened datatypes).
  sim::Time exchange_cpu_per_rank = sim::usec(12);
};

/// One rank's share of a collective round, as the planner sees it.
struct TwoPhaseRank {
  net::NodeId node;       ///< compute node hosting the rank
  std::uint64_t context;  ///< the rank's process id (I/O context)
  const std::vector<pfs::Segment>* segments;
};

/// A planned two-phase round: who reads/writes what, and the traffic.
struct TwoPhasePlan {
  struct Aggregator {
    net::NodeId node;
    std::uint64_t context;           ///< aggregator's process id as I/O context
    std::vector<pfs::Segment> segs;  ///< sorted and coalesced, or one sieved span
  };
  /// Traffic between one rank node and one aggregator.
  struct Message {
    net::NodeId rank_node;
    net::NodeId agg_node;
    /// Phase 1, rank node -> aggregator: a header, one 16-byte descriptor
    /// per file-domain piece, and on writes the payload itself.
    std::uint64_t request_bytes;
    /// The data share; a read scatters it back aggregator -> rank node.
    std::uint64_t payload_bytes;
  };
  std::vector<Aggregator> aggs;   ///< empty when the round moves no bytes
  std::vector<Message> messages;  ///< in (aggregator, rank node) order
  std::uint64_t shuffle_bytes = 0;
};

/// Working storage of plan_two_phase. Only its capacity carries over from
/// one round to the next.
struct TwoPhaseScratch {
  /// One rank's segment list, keyed by its first nonempty offset.
  struct Run {
    std::uint64_t head;
    const pfs::Segment* segs;
    std::uint32_t size;
    std::uint32_t col;  ///< traffic-table column of the rank's node
  };
  /// Pieces and payload of one (aggregator, rank node) traffic-table cell.
  struct Cell {
    std::uint64_t pieces = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<std::pair<net::NodeId, std::uint32_t>> by_node;  ///< (node, rank index)
  std::vector<std::pair<net::NodeId, std::uint32_t>> nodes;    ///< (node, first rank)
  std::vector<std::uint32_t> column;  ///< per rank index
  std::vector<Cell> table;            ///< aggregator-major
  std::vector<Run> runs;
  std::vector<Run> live;  ///< runs still being visited
};

/// Plan one round into `plan` (pure: schedules nothing). One aggregator per
/// distinct compute node, by ascending node id; the accessed extent splits
/// into equal contiguous file domains, one each.
/// `plan` is overwritten; it and `scratch` keep their capacity, so a caller
/// that reuses them plans steady rounds without allocating.
void plan_two_phase(const std::vector<TwoPhaseRank>& ranks, bool is_write,
                    const CollectiveParams& params, TwoPhasePlan& plan,
                    TwoPhaseScratch& scratch);

class CollectiveDriver : public VanillaDriver {
 public:
  CollectiveDriver(IoEnv env, CollectiveParams params = {})
      : VanillaDriver(env), params_(params) {}

  void io(mpi::Process& proc, const mpi::IoCall& call,
          sim::UniqueFunction done) override;
  void on_process_end(mpi::Process& proc) override;

  std::string name() const override { return "collective-io"; }

  std::uint64_t collective_rounds() const { return rounds_; }
  std::uint64_t shuffle_bytes() const { return shuffle_bytes_; }

 private:
  struct Entry {
    mpi::Process* proc;
    const mpi::IoCall* call;  ///< valid until `done` is invoked (IoDriver::io)
    sim::UniqueFunction done;
  };
  struct Epoch {
    std::vector<Entry> entries;
    std::uint32_t finished = 0;  ///< ranks of the job that have ended
  };
  /// A round in flight, pooled in round_pool_: every phase's callbacks
  /// capture `{this, slot}`, and the entry list and plan keep their capacity
  /// for the next round that takes the slot.
  struct Round {
    std::vector<Entry> entries;
    TwoPhasePlan plan;
    pfs::FileId file = 0;
    bool is_write = false;
    sim::Time cpu = 0;        ///< exchange bookkeeping before ranks resume
    std::size_t pending = 0;  ///< messages or aggregator I/Os of the current phase
  };

  Epoch& epoch_for(mpi::Job& job);
  void run_round(Epoch& epoch);
  void aggregate_io_(std::uint32_t slot);
  void after_aggregate_io_(std::uint32_t slot);
  /// Resume the round's ranks after its exchange CPU, then free the slot.
  void finish_round_(std::uint32_t slot);

  CollectiveParams params_;
  /// Indexed by job id: Testbed numbers jobs densely from 0, and a
  /// hand-built job with a larger id grows the table on first use.
  std::vector<Epoch> epochs_;
  sim::Slab<Round> round_pool_;
  std::vector<TwoPhaseRank> ranks_;  ///< planner input, rebuilt every round
  TwoPhaseScratch scratch_;
  std::uint64_t rounds_ = 0;
  std::uint64_t shuffle_bytes_ = 0;
};

}  // namespace dpar::mpiio
