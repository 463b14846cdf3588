// Tests for the extension features: per-server disk heterogeneity, cache
// idle expiry, CSV export and blktrace event-list retention.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "disk/device.hpp"
#include "harness/testbed.hpp"
#include "metrics/csv.hpp"
#include "wl/workloads.hpp"

namespace dpar {
namespace {

TEST(HeterogeneousServers, DegradedServerSlowsItsRequests) {
  auto run = [](bool degrade) {
    harness::TestbedConfig cfg;
    cfg.data_servers = 3;
    cfg.compute_nodes = 2;
    if (degrade) {
      disk::DiskParams slow = cfg.disk;
      slow.sustained_mb_s /= 8;
      cfg.per_server_disk.assign(3, cfg.disk);
      cfg.per_server_disk[1] = slow;
    }
    harness::Testbed tb(cfg);
    wl::DemoConfig dc;
    dc.file = tb.create_file("f", 8 << 20);
    dc.file_size = 8 << 20;
    dc.segment_size = 64 * 1024;
    auto& job = tb.add_job("j", 2, tb.vanilla(),
                           [dc](std::uint32_t) { return wl::make_demo(dc); },
                           dualpar::Policy::kForcedNormal);
    tb.run();
    return job.completion_time();
  };
  EXPECT_GT(run(true), run(false));
}

TEST(CacheEviction, IdleChunksExpireDuringLongRuns) {
  // Two widely separated jobs: the first job's chunks must be gone (idle
  // eviction tick) by the time the run ends, not accumulated forever.
  harness::TestbedConfig cfg;
  cfg.data_servers = 2;
  cfg.compute_nodes = 2;
  cfg.cache.idle_eviction = sim::secs(2);
  harness::Testbed tb(cfg);
  wl::DemoConfig d1;
  d1.file = tb.create_file("a", 4 << 20);
  d1.file_size = 4 << 20;
  d1.segment_size = 64 * 1024;
  tb.add_job("early", 2, tb.dualpar(), [d1](std::uint32_t) { return wl::make_demo(d1); },
             dualpar::Policy::kForcedDataDriven);
  // A late compute-only job keeps the clock running past the eviction TTL.
  wl::DemoConfig d2;
  d2.file = tb.create_file("b", 1 << 20);
  d2.file_size = 64 * 1024;
  d2.segment_size = 64 * 1024;
  d2.compute_per_call = sim::secs(1);
  tb.add_job("late", 1, tb.vanilla(), [d2](std::uint32_t) { return wl::make_demo(d2); },
             dualpar::Policy::kForcedNormal, sim::secs(5));
  tb.run();
  EXPECT_EQ(tb.cache().total_valid_bytes(), 0u);
}

TEST(CsvExport, SeriesRoundTrips) {
  sim::TimeSeries series;
  series.add(sim::secs(1), 10.5);
  series.add(sim::secs(2), 20.25);
  const std::string path = ::testing::TempDir() + "/series.csv";
  ASSERT_TRUE(metrics::write_series_csv(path, series, "mbps"));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("time_s,mbps"), std::string::npos);
  EXPECT_NE(text.find("1.000000,10.500000"), std::string::npos);
  EXPECT_NE(text.find("2.000000,20.250000"), std::string::npos);
}

TEST(CsvExport, TraceRoundTrips) {
  std::vector<disk::TraceEvent> events;
  disk::TraceEvent ev;
  ev.time = sim::msec(1500);
  ev.lba = 4096;
  ev.sectors = 32;
  ev.is_write = true;
  ev.context = 7;
  ev.seek_distance = 123;
  events.push_back(ev);
  const std::string path = ::testing::TempDir() + "/trace.csv";
  ASSERT_TRUE(metrics::write_trace_csv(path, events));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("1.500000,4096,32,W,7,123"), std::string::npos);
}

TEST(CsvExport, FailsOnUnwritablePath) {
  sim::TimeSeries s;
  EXPECT_FALSE(metrics::write_series_csv("/nonexistent-dir/x.csv", s));
}

/// The demo workload on the default testbed (9 servers, each a RAID-0 pair).
void run_demo_on(harness::Testbed& tb) {
  wl::DemoConfig dc;
  dc.file_size = 16 << 20;
  dc.segment_size = 16 * 1024;
  dc.file = tb.create_file("demo", dc.file_size);
  tb.add_job("demo", 8, tb.vanilla(), [dc](std::uint32_t) { return wl::make_demo(dc); },
             dualpar::Policy::kForcedNormal);
  tb.run();
}

disk::BlkTrace& member_trace(harness::Testbed& tb, std::uint32_t server, int member) {
  auto& raid = dynamic_cast<disk::Raid0Device&>(tb.server(server).device());
  return raid.member(member).trace();
}

TEST(TraceRetention, DefaultKeepsNoEventListOnAnyMember) {
  harness::Testbed tb;
  run_demo_on(tb);
  for (std::uint32_t s = 0; s < tb.num_servers(); ++s) {
    for (int m = 0; m < 2; ++m) {
      const disk::BlkTrace& tr = member_trace(tb, s, m);
      EXPECT_GT(tr.dispatches(), 0u) << "server " << s << " member " << m;
      EXPECT_TRUE(tr.events().empty()) << "server " << s << " member " << m;
    }
  }
}

TEST(TraceRetention, KeepTracesReachesMemberZeroOnly) {
  // trace() is member 0's, and it is the only list any reader sees: member 1
  // keeps none even when the run asks for traces.
  harness::TestbedConfig cfg;
  cfg.keep_traces = true;
  harness::Testbed tb(cfg);
  run_demo_on(tb);
  for (std::uint32_t s = 0; s < tb.num_servers(); ++s) {
    const disk::BlkTrace& m0 = member_trace(tb, s, 0);
    EXPECT_EQ(&m0, &tb.server(s).device().trace()) << "server " << s;
    EXPECT_FALSE(m0.events().empty()) << "server " << s;
    EXPECT_EQ(m0.events().size(), m0.dispatches()) << "server " << s;
    const disk::BlkTrace& m1 = member_trace(tb, s, 1);
    EXPECT_GT(m1.dispatches(), 0u) << "server " << s;
    EXPECT_TRUE(m1.events().empty()) << "server " << s;
  }
}

}  // namespace
}  // namespace dpar
