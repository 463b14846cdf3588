#include "harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace dpar::bench {

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kVanilla: return "vanilla MPI-IO";
    case Variant::kCollective: return "collective IO";
    case Variant::kDualPar: return "DualPar";
    case Variant::kPreexec: return "preexec-prefetch";
  }
  return "?";
}

mpi::IoDriver& driver_for(harness::Testbed& tb, Variant v) {
  switch (v) {
    case Variant::kVanilla: return tb.vanilla();
    case Variant::kCollective: return tb.collective();
    case Variant::kDualPar: return tb.dualpar();
    case Variant::kPreexec: return tb.preexec();
  }
  return tb.vanilla();
}

dualpar::Policy policy_for(Variant v) {
  // §V-B: "For execution with DualPar, programs stay in the data-driven
  // mode." Fig 7 overrides this with kAdaptive explicitly.
  return v == Variant::kDualPar ? dualpar::Policy::kForcedDataDriven
                                : dualpar::Policy::kForcedNormal;
}

harness::TestbedConfig paper_config() {
  harness::TestbedConfig cfg;
  cfg.data_servers = 9;
  cfg.compute_nodes = 4;
  cfg.cores_per_node = 48;
  cfg.stripe_unit = 64 * 1024;
  cfg.scheduler = disk::SchedulerKind::kCfq;
  return cfg;
}

std::uint64_t scale_divisor(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--full") == 0) return 1;
  if (const char* env = std::getenv("DPAR_SCALE")) {
    const long v = std::atol(env);
    if (v >= 1) return static_cast<std::uint64_t>(v);
  }
  return 16;
}

bool label_selected(const std::string& label) {
  const char* f = std::getenv("DPAR_BENCH_FILTER");
  if (f == nullptr || *f == '\0') return true;
  return label.find(f) != std::string::npos;
}

unsigned bench_repeat() {
  const char* s = std::getenv("DPAR_BENCH_REPEAT");
  if (s == nullptr || *s == '\0') return 1;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v < 1 || v > 64)
    throw std::invalid_argument("DPAR_BENCH_REPEAT must be an integer in [1, 64]");
  return static_cast<unsigned>(v);
}

std::uint64_t peak_rss_bytes() {
  std::FILE* fp = std::fopen("/proc/self/status", "r");
  if (fp == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  while (std::fgets(line, sizeof line, fp) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(fp);
  return kb * 1024;
}

std::string write_perf_json(const std::string& bench_name, ExperimentPool& pool) {
  const std::vector<ExperimentRecord>& records = pool.wait_all();
  std::vector<metrics::PerfEntry> entries;
  entries.reserve(records.size());
  for (const ExperimentRecord& r : records)
    entries.push_back(metrics::PerfEntry{r.label, r.stats.value, r.stats.events,
                                         r.wall_s});
  return write_perf_json(bench_name, entries, pool.suite_wall_s(), pool.jobs());
}

std::string write_perf_json(const std::string& bench_name,
                            const std::vector<metrics::PerfEntry>& entries,
                            double suite_wall_s, unsigned jobs) {
  const char* env = std::getenv("DPAR_BENCH_JSON");
  const std::string path = env ? env : "BENCH_sim_core.json";
  if (!metrics::write_bench_perf_json(path, bench_name, entries, suite_wall_s,
                                      jobs)) {
    // stderr so stdout stays byte-comparable across runs.
    std::fprintf(stderr, "warning: could not write perf accounting to %s\n",
                 path.c_str());
    return "";
  }
  return path;
}

void Table::add_row(const std::string& label, const std::vector<double>& values,
                    int precision) {
  std::vector<std::string> cells{label};
  char buf[64];
  for (double v : values) {
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    cells.emplace_back(buf);
  }
  rows_.push_back(std::move(cells));
}

void Table::add_text_row(const std::string& label, const std::vector<std::string>& cells) {
  std::vector<std::string> row{label};
  row.insert(row.end(), cells.begin(), cells.end());
  rows_.push_back(std::move(row));
}

void Table::print() const {
  std::printf("\n== %s ==\n", title_.c_str());
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size() && c < width.size(); ++c)
      width[c] = std::max(width[c], row[c].size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    std::printf("%-*s  ", static_cast<int>(width[c]), headers_[c].c_str());
  std::printf("\n");
  for (std::size_t c = 0; c < headers_.size(); ++c)
    std::printf("%s  ", std::string(width[c], '-').c_str());
  std::printf("\n");
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
      if (c == 0) {
        std::printf("%-*s  ", static_cast<int>(width[c]), row[c].c_str());
      } else {
        std::printf("%*s  ", static_cast<int>(width[c]), row[c].c_str());
      }
    }
    std::printf("\n");
  }
  for (const auto& n : notes_) std::printf("  note: %s\n", n.c_str());
}

std::uint64_t trace_reversals(const std::vector<disk::TraceEvent>& events) {
  std::uint64_t reversals = 0;
  for (std::size_t i = 1; i < events.size(); ++i)
    if (events[i].lba < events[i - 1].lba) ++reversals;
  return reversals;
}

void print_trace_sample(const std::string& title,
                        const std::vector<disk::TraceEvent>& events,
                        std::size_t max_lines) {
  std::printf("\n-- %s (%zu dispatches, %llu reversals) --\n", title.c_str(),
              events.size(),
              static_cast<unsigned long long>(trace_reversals(events)));
  const std::size_t step = events.size() > max_lines ? events.size() / max_lines : 1;
  for (std::size_t i = 0; i < events.size(); i += step) {
    std::printf("  t=%8.4fs  LBN=%10llu  %s\n", sim::to_seconds(events[i].time),
                static_cast<unsigned long long>(events[i].lba),
                events[i].is_write ? "W" : "R");
  }
}

}  // namespace dpar::bench
