// Microbenchmarks (google-benchmark) of the simulator's hot primitives:
// event-engine throughput, disk-scheduler operations (flat vs retained
// multimap reference), network send/deliver churn, range-set bookkeeping,
// striping decomposition, and end-to-end simulated-seconds-per-wall-second.
//
// Unlike the figure/table benches this binary has no ExperimentPool, so a
// custom main (bottom of file) captures every run from the benchmark
// reporter and merges a "bench_micro" section into BENCH_sim_core.json —
// the file the CI perf-smoke job diffs against its checked-in baseline.
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "cache/rangeset.hpp"
#include "disk/device.hpp"
#include "disk/scheduler.hpp"
#include "harness.hpp"
#include "harness/testbed.hpp"
#include "net/network.hpp"
#include "pfs/layout.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "wl/workloads.hpp"

using namespace dpar;

namespace {

/// The pre-overhaul event engine (std::function callbacks, binary
/// priority_queue, pending_/cancelled_ hash sets), kept verbatim as the
/// baseline the slab-heap engine is measured against.
class LegacyEngine {
 public:
  using Callback = std::function<void()>;
  struct LegacyEventId {
    std::uint64_t seq = 0;
    explicit operator bool() const { return seq != 0; }
  };

  LegacyEventId at(sim::Time t, Callback cb) {
    const std::uint64_t seq = next_seq_++;
    heap_.push(Item{t, seq, std::move(cb)});
    pending_.insert(seq);
    return LegacyEventId{seq};
  }
  LegacyEventId after(sim::Time delay, Callback cb) {
    return at(now_ + delay, std::move(cb));
  }
  bool cancel(LegacyEventId id) {
    if (!id) return false;
    if (pending_.erase(id.seq) == 0) return false;
    cancelled_.insert(id.seq);
    return true;
  }
  bool step() {
    while (!heap_.empty()) {
      Item item = std::move(const_cast<Item&>(heap_.top()));
      heap_.pop();
      if (auto it = cancelled_.find(item.seq); it != cancelled_.end()) {
        cancelled_.erase(it);
        continue;
      }
      pending_.erase(item.seq);
      now_ = item.t;
      item.cb();
      return true;
    }
    return false;
  }
  void run() {
    while (step()) {
    }
  }
  sim::Time now() const { return now_; }

 private:
  struct Item {
    sim::Time t;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Item, std::vector<Item>, Later> heap_;
  std::unordered_set<std::uint64_t> pending_;
  std::unordered_set<std::uint64_t> cancelled_;
  sim::Time now_ = 0;
  std::uint64_t next_seq_ = 1;
};

void BM_EngineScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < 1000; ++i) eng.after(i, [] {});
    eng.run();
    benchmark::DoNotOptimize(eng.now());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineScheduleFire);

void BM_LegacyEngineScheduleFire(benchmark::State& state) {
  for (auto _ : state) {
    LegacyEngine eng;
    for (int i = 0; i < 1000; ++i) eng.after(i, [] {});
    eng.run();
    benchmark::DoNotOptimize(eng.now());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LegacyEngineScheduleFire);

// The engine's real-world duty cycle: schedule with realistic captures (three
// pointer-sized values — beyond std::function's inline buffer), cancel half
// (the disk layer cancels plug/anticipation timers constantly), fire the rest.
// Acceptance gate for the slab-heap engine: >= 2x legacy events/sec here.
template <class Eng>
void schedule_cancel_fire(Eng& eng, std::uint64_t& sink) {
  using Id = decltype(eng.at(0, [] {}));
  std::vector<Id> ids;
  ids.reserve(1024);
  std::uint64_t a = 1, b = 2, c = 3;
  for (int i = 0; i < 1024; ++i)
    ids.push_back(eng.after(i & 255, [&a, &b, &c] { a += b + c; }));
  for (int i = 0; i < 1024; i += 2) eng.cancel(ids[static_cast<std::size_t>(i)]);
  eng.run();
  sink = a;
}

void BM_EngineScheduleCancelFire(benchmark::State& state) {
  std::uint64_t sink = 0;
  for (auto _ : state) {
    sim::Engine eng;
    schedule_cancel_fire(eng, sink);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EngineScheduleCancelFire);

void BM_LegacyEngineScheduleCancelFire(benchmark::State& state) {
  std::uint64_t sink = 0;
  for (auto _ : state) {
    LegacyEngine eng;
    schedule_cancel_fire(eng, sink);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_LegacyEngineScheduleCancelFire);

// ---- Tiered event queue vs the frozen heap oracle ------------------------
// The cancel-heavy timeout pattern the ladder queue was built for: a
// standing population of far-future guard timers (I/O timeouts, plug and
// anticipation timers) that is continuously re-armed, with only a trickle
// ever firing. The heap pays a deep sift per push into the big queue; the
// ladder files each key into a bucket in O(1) and never re-sorts on cancel.
// One item = one schedule or cancel. perf_smoke gates ladder >= 1.5x heap.
void BM_EventQueueSweep(benchmark::State& state, sim::QueueKind kind) {
  constexpr int kPending = 1 << 15;
  constexpr int kRounds = 64;
  constexpr int kChurn = 512;
  for (auto _ : state) {
    sim::Engine eng(kind);
    sim::Rng rng(41);
    const auto timeout = [&rng]() -> sim::Time {
      return sim::msec(1) + static_cast<sim::Time>(rng.uniform(sim::msec(50)));
    };
    std::vector<sim::EventId> ids;
    ids.reserve(kPending);
    for (int i = 0; i < kPending; ++i)
      ids.push_back(eng.after(timeout(), [] {}));
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kChurn; ++i) {
        const std::size_t at = rng.uniform(ids.size());
        eng.cancel(ids[at]);  // the guarded I/O completed; the timer dies
        ids[at] = eng.after(timeout(), [] {});
      }
      // A few expirations slip through between churn bursts.
      eng.run_until(eng.now() + sim::usec(800));
    }
    for (const sim::EventId id : ids) eng.cancel(id);
    benchmark::DoNotOptimize(eng.events_fired());
  }
  state.SetItemsProcessed(state.iterations() *
                          (kPending + 2 * kRounds * kChurn + kPending));
}
BENCHMARK_CAPTURE(BM_EventQueueSweep, cancel_heavy_ladder,
                  sim::QueueKind::kLadder);
BENCHMARK_CAPTURE(BM_EventQueueSweep, cancel_heavy_heap, sim::QueueKind::kHeap);

// Steady-state timer churn: every fired timer immediately re-arms itself
// (heartbeats, periodic monitors), so the queue holds a constant population
// while events pour through pop+push. One item = one fired timer.
void BM_EventQueueTimerChurn(benchmark::State& state, sim::QueueKind kind) {
  constexpr int kTimers = 4096;
  constexpr std::uint64_t kBudget = 1 << 16;
  for (auto _ : state) {
    sim::Engine eng(kind);
    std::uint64_t fired = 0;
    std::function<void(sim::Time)> arm = [&](sim::Time period) {
      eng.after(period, [&arm, &fired, period] {
        if (++fired < kBudget) arm(period);
      });
    };
    for (int i = 0; i < kTimers; ++i)
      arm(1024 + static_cast<sim::Time>((i * 37) & 4095));
    eng.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBudget));
}
BENCHMARK_CAPTURE(BM_EventQueueTimerChurn, ladder, sim::QueueKind::kLadder);
BENCHMARK_CAPTURE(BM_EventQueueTimerChurn, heap, sim::QueueKind::kHeap);

void BM_EngineSelfChaining(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    int depth = 0;
    std::function<void()> chain = [&] {
      if (++depth < 1000) eng.after(1, chain);
    };
    eng.after(1, chain);
    eng.run();
    benchmark::DoNotOptimize(depth);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EngineSelfChaining);

void BM_CfqEnqueueDispatch(benchmark::State& state) {
  const auto contexts = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    auto sched = disk::make_cfq_scheduler();
    sim::Rng rng(7);
    for (int i = 0; i < 512; ++i) {
      disk::Request r;
      r.id = static_cast<std::uint64_t>(i);
      r.lba = rng.uniform(1 << 24);
      r.sectors = 32;
      r.context = rng.uniform(contexts);
      sched->enqueue(std::move(r), 0);
    }
    std::uint64_t head = 0;
    sim::Time now = 0;
    while (sched->pending() > 0) {
      auto d = sched->next(head, now);
      if (d.kind == disk::Decision::Kind::kWaitUntil) {
        now = d.wait_until;
        continue;
      }
      if (d.kind == disk::Decision::Kind::kIdle) break;
      head = d.request.end_lba();
      sched->completed(d.request, now);
      now += sim::usec(100);
    }
    benchmark::DoNotOptimize(head);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_CfqEnqueueDispatch)->Arg(1)->Arg(16)->Arg(64);

// ---- Scheduler duty cycle: flat rewrites vs the retained multimap
// references. One item = one request taken through enqueue -> next ->
// completed under a PFS-server-like load: bursty arrivals from a handful of
// contexts, partial drains, and periodic time jumps large enough to trip the
// deadline scheduler's expiry FIFOs. The perf-smoke CI gate requires
// flat >= 1.3x reference events/sec per policy.
using SchedFactory = std::unique_ptr<disk::IoScheduler> (*)();

constexpr int kSchedRounds = 16;
constexpr int kSchedBurst = 64;

void sched_duty_cycle(disk::IoScheduler& sched, std::uint64_t contexts,
                      std::uint64_t& sink) {
  sim::Rng rng(7);
  sim::Time now = 0;
  std::uint64_t head = 0;
  std::uint64_t next_id = 1;
  auto serve = [&](int limit) {
    for (int served = 0; sched.pending() > 0 && served < limit;) {
      auto d = sched.next(head, now);
      if (d.kind == disk::Decision::Kind::kWaitUntil) {
        now = d.wait_until;
        continue;
      }
      if (d.kind == disk::Decision::Kind::kIdle) break;
      head = d.request.end_lba();
      now += sim::usec(80);
      sched.completed(d.request, now);
      ++served;
    }
  };
  for (int round = 0; round < kSchedRounds; ++round) {
    for (int i = 0; i < kSchedBurst; ++i) {
      disk::Request r;
      r.id = next_id++;
      r.lba = rng.uniform(1 << 24);
      r.sectors = 32;
      r.is_write = rng.uniform(4) == 0;
      r.context = rng.uniform(contexts);
      sched.enqueue(std::move(r), now);
      now += sim::usec(10);
    }
    serve(kSchedBurst / 2);
    // Jump far enough that several rounds in, queued reads blow their 500 ms
    // deadline and the expiry path gets exercised.
    now += sim::msec(120);
  }
  serve(1 << 30);
  sink = head;
}

void BM_SchedDutyCycle(benchmark::State& state, SchedFactory make) {
  std::uint64_t sink = 0;
  for (auto _ : state) {
    auto sched = make();
    sched_duty_cycle(*sched, 16, sink);
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kSchedRounds * kSchedBurst);
}
BENCHMARK_CAPTURE(BM_SchedDutyCycle, noop_flat,
                  +[] { return disk::make_noop_scheduler(); });
BENCHMARK_CAPTURE(BM_SchedDutyCycle, noop_ref,
                  +[] { return disk::make_reference_noop_scheduler(); });
BENCHMARK_CAPTURE(BM_SchedDutyCycle, deadline_flat,
                  +[] { return disk::make_deadline_scheduler(); });
BENCHMARK_CAPTURE(BM_SchedDutyCycle, deadline_ref,
                  +[] { return disk::make_reference_deadline_scheduler(); });
BENCHMARK_CAPTURE(BM_SchedDutyCycle, cscan_flat,
                  +[] { return disk::make_cscan_scheduler(); });
BENCHMARK_CAPTURE(BM_SchedDutyCycle, cscan_ref,
                  +[] { return disk::make_reference_cscan_scheduler(); });
BENCHMARK_CAPTURE(BM_SchedDutyCycle, cfq_flat,
                  +[] { return disk::make_cfq_scheduler(); });
BENCHMARK_CAPTURE(BM_SchedDutyCycle, cfq_ref,
                  +[] { return disk::make_reference_cfq_scheduler(); });
BENCHMARK_CAPTURE(BM_SchedDutyCycle, anticipatory_flat,
                  +[] { return disk::make_anticipatory_scheduler(); });
BENCHMARK_CAPTURE(BM_SchedDutyCycle, anticipatory_ref,
                  +[] { return disk::make_reference_anticipatory_scheduler(); });

// The batch hand-off a PFS server uses for a decomposed list-I/O request:
// enqueue_batch on the flat scheduler merges one sorted run; the reference
// falls back to per-request enqueue.
void BM_SchedEnqueueBatch(benchmark::State& state, SchedFactory make) {
  std::uint64_t sink = 0;
  for (auto _ : state) {
    auto sched = make();
    sim::Rng rng(13);
    std::vector<disk::Request> batch(64);
    std::uint64_t next_id = 1;
    for (int round = 0; round < 8; ++round) {
      // An ascending run, like decompose_segment emits.
      std::uint64_t lba = rng.uniform(1 << 20);
      for (auto& r : batch) {
        r = disk::Request{};
        r.id = next_id++;
        r.lba = lba;
        lba += 64 + rng.uniform(64);
        r.sectors = 32;
        r.context = 5;
      }
      sched->enqueue_batch(batch.data(), batch.size(), 0);
    }
    std::uint64_t head = 0;
    while (sched->pending() > 0) {
      auto d = sched->next(head, 0);
      if (d.kind != disk::Decision::Kind::kDispatch) break;
      head = d.request.end_lba();
    }
    sink = head;
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 8 * 64);
}
BENCHMARK_CAPTURE(BM_SchedEnqueueBatch, cscan_flat,
                  +[] { return disk::make_cscan_scheduler(); });
BENCHMARK_CAPTURE(BM_SchedEnqueueBatch, cscan_ref,
                  +[] { return disk::make_reference_cscan_scheduler(); });
BENCHMARK_CAPTURE(BM_SchedEnqueueBatch, deadline_flat,
                  +[] { return disk::make_deadline_scheduler(); });
BENCHMARK_CAPTURE(BM_SchedEnqueueBatch, deadline_ref,
                  +[] { return disk::make_reference_deadline_scheduler(); });

// Network send/deliver churn: the per-message path is one Transit control
// block + two FifoResource hops; one item = one delivered message.
void BM_NetworkSendDeliver(benchmark::State& state) {
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    sim::Engine eng;
    net::Network net(eng, 16);
    sim::Rng rng(23);
    for (int i = 0; i < 1024; ++i) {
      const auto from = static_cast<net::NodeId>(rng.uniform(16));
      auto to = static_cast<net::NodeId>(rng.uniform(16));
      if (to == from) to = (to + 1) % 16;
      net.send(from, to, 4096 + rng.uniform(1 << 16),
               [&delivered] { ++delivered; });
    }
    eng.run();
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_NetworkSendDeliver);

void BM_RangeSetAddCovers(benchmark::State& state) {
  sim::Rng rng(3);
  for (auto _ : state) {
    cache::RangeSet rs;
    for (int i = 0; i < 256; ++i) {
      const std::uint64_t b = rng.uniform(1 << 20);
      rs.add(b, b + 4096);
    }
    benchmark::DoNotOptimize(rs.covers(1000, 5000));
    benchmark::DoNotOptimize(rs.total_bytes());
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_RangeSetAddCovers);

// CRM's write-back pattern: build a fragmented set, punch holes, query gaps.
void BM_RangeSetRemoveGaps(benchmark::State& state) {
  sim::Rng rng(11);
  for (auto _ : state) {
    cache::RangeSet rs;
    for (int i = 0; i < 256; ++i) {
      const std::uint64_t b = rng.uniform(1 << 20);
      rs.add(b, b + 8192);
    }
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t b = rng.uniform(1 << 20);
      rs.remove(b, b + 4096);
    }
    benchmark::DoNotOptimize(rs.gaps_within(0, 1 << 20).size());
    benchmark::DoNotOptimize(rs.intersects(500'000, 600'000));
  }
  state.SetItemsProcessed(state.iterations() * 320);
}
BENCHMARK(BM_RangeSetRemoveGaps);

// The sequential-append fast path every server-cache fill takes.
void BM_RangeSetSequentialAdd(benchmark::State& state) {
  for (auto _ : state) {
    cache::RangeSet rs;
    for (std::uint64_t i = 0; i < 1024; ++i) rs.add(i * 65536, i * 65536 + 65536);
    benchmark::DoNotOptimize(rs.total_bytes());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_RangeSetSequentialAdd);

void BM_StripeDecompose(benchmark::State& state) {
  pfs::StripeLayout layout{64 * 1024, 9};
  for (auto _ : state) {
    std::vector<std::vector<pfs::ServerRun>> per_server;
    pfs::decompose_segment(layout, pfs::Segment{12345, 8 << 20}, per_server);
    benchmark::DoNotOptimize(per_server.size());
  }
}
BENCHMARK(BM_StripeDecompose);

/// The frozen per-chunk reference loop on the same segment, for a direct
/// closed-form-vs-loop comparison in one report.
void BM_StripeDecomposeRef(benchmark::State& state) {
  pfs::StripeLayout layout{64 * 1024, 9};
  layout.reference_decompose = true;
  for (auto _ : state) {
    std::vector<std::vector<pfs::ServerRun>> per_server;
    pfs::decompose_segment(layout, pfs::Segment{12345, 8 << 20}, per_server);
    benchmark::DoNotOptimize(per_server.size());
  }
}
BENCHMARK(BM_StripeDecomposeRef);

/// End-to-end: how much simulated work one wall-clock iteration buys.
void BM_EndToEndMpiIoTest(benchmark::State& state) {
  for (auto _ : state) {
    harness::TestbedConfig cfg;
    cfg.data_servers = 9;
    cfg.compute_nodes = 4;
    harness::Testbed tb(cfg);
    wl::MpiIoTestConfig mc;
    mc.file_size = 16 << 20;
    mc.file = tb.create_file("f", mc.file_size);
    mc.request_size = 16 * 1024;
    auto& job = tb.add_job("m", 64, tb.dualpar(),
                           [mc](std::uint32_t) { return wl::make_mpi_io_test(mc); },
                           dualpar::Policy::kForcedDataDriven);
    const std::uint64_t events = tb.run();
    benchmark::DoNotOptimize(job.completion_time());
    state.counters["events"] = static_cast<double>(events);
  }
}
BENCHMARK(BM_EndToEndMpiIoTest)->Unit(benchmark::kMillisecond);

// Repair-pipeline micro: a server crash invalidates every copy it hosts, and
// after the restart the repair manager re-copies them from surviving replicas
// through the foreground disk schedulers and NIC paths. The repair byte count
// is deterministic across iterations, so items/sec = repair bytes per wall
// second — the recovery-path rate perf_smoke gates.
void BM_RepairThroughput(benchmark::State& state) {
  std::uint64_t last_bytes = 0;
  for (auto _ : state) {
    harness::TestbedConfig cfg = bench::paper_config();
    cfg.keep_traces = false;
    cfg.replica.replication_factor = 3;
    cfg.replica.repair_bandwidth = 400e6;  // let repair, not the cap, dominate
    cfg.fault.server.crashes.push_back(
        {/*server=*/4, sim::msec(5), sim::msec(40)});
    harness::Testbed tb(cfg);
    wl::DemoConfig dc;
    dc.file_size = 32 << 20;
    dc.file = tb.create_file("repair", dc.file_size);
    dc.segment_size = 64 * 1024;
    tb.add_job("repair", 16, tb.vanilla(),
               [dc](std::uint32_t) { return wl::make_demo(dc); },
               dualpar::Policy::kForcedNormal);
    tb.run();
    last_bytes = tb.replica_manager()->counters().repair_bytes_copied;
    state.counters["repair_bytes"] = static_cast<double>(last_bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(last_bytes));
}
BENCHMARK(BM_RepairThroughput)->Unit(benchmark::kMillisecond);

// Forward every run to the normal console output while collecting one
// PerfEntry per benchmark, so bench_micro lands in BENCH_sim_core.json like
// the figure/table benches. value = items/sec (the duty-cycle rate the CI
// perf-smoke gate compares), events = total items processed.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  /// With DPAR_BENCH_REPEAT > 1 every benchmark runs N repetitions and only
  /// the median aggregate is recorded (under the plain benchmark name), so
  /// the JSON schema and the perf-smoke labels are identical either way.
  explicit RecordingReporter(unsigned repeats) : repeats_(repeats) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      if (repeats_ > 1) {
        if (run.run_type != Run::RT_Aggregate || run.aggregate_name != "median")
          continue;
      } else if (run.run_type != Run::RT_Iteration) {
        continue;
      }
      metrics::PerfEntry e;
      e.label = run.benchmark_name();
      const std::string suffix = "_median";
      if (repeats_ > 1 && e.label.size() > suffix.size() &&
          e.label.compare(e.label.size() - suffix.size(), suffix.size(),
                          suffix) == 0)
        e.label.erase(e.label.size() - suffix.size());
      auto it = run.counters.find("items_per_second");
      // Benches without SetItemsProcessed still need a comparable rate:
      // fall back to iterations/sec.
      e.value = it != run.counters.end() ? static_cast<double>(it->second)
                : run.real_accumulated_time > 0
                    ? static_cast<double>(run.iterations) / run.real_accumulated_time
                    : 0;
      e.events = run.iterations;
      e.wall_s = run.real_accumulated_time;
      entries_.push_back(std::move(e));
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  const std::vector<metrics::PerfEntry>& entries() const { return entries_; }

 private:
  std::vector<metrics::PerfEntry> entries_;
  unsigned repeats_ = 1;
};

}  // namespace

int main(int argc, char** argv) {
  const auto suite_start = std::chrono::steady_clock::now();
  // DPAR_BENCH_REPEAT=N rides on google-benchmark's repetition machinery:
  // each benchmark runs N times and the reporter keeps only the median
  // aggregate, so one noisy CI neighbour cannot fail a perf gate.
  const unsigned repeats = bench::bench_repeat();
  std::vector<char*> args(argv, argv + argc);
  std::string rep_flag;
  if (repeats > 1) {
    rep_flag = "--benchmark_repetitions=" + std::to_string(repeats);
    args.push_back(rep_flag.data());
  }
  int args_n = static_cast<int>(args.size());
  benchmark::Initialize(&args_n, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_n, args.data())) return 1;
  RecordingReporter reporter(repeats);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - suite_start)
          .count();
  if (!reporter.entries().empty())
    bench::write_perf_json("bench_micro", reporter.entries(), wall_s, 1);
  return 0;
}
