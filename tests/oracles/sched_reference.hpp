// Frozen multimap-based I/O schedulers (sched_reference.cpp): the
// differential oracles for the flat rewrites in src/disk and the baseline
// side of the perf-smoke duty-cycle ratio.
#pragma once

#include <memory>

#include "disk/scheduler.hpp"

namespace dpar::disk {

std::unique_ptr<IoScheduler> make_reference_noop_scheduler();
std::unique_ptr<IoScheduler> make_reference_deadline_scheduler(
    sim::Time read_deadline = sim::msec(500), sim::Time write_deadline = sim::secs(5));
std::unique_ptr<IoScheduler> make_reference_cscan_scheduler();
std::unique_ptr<IoScheduler> make_reference_cfq_scheduler(CfqParams p = {});

}  // namespace dpar::disk
