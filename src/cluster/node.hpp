// Compute-node CPU scheduler.
//
// Each node has a fixed number of cores. Compute bursts are non-preemptive
// tasks queued at two priorities: kNormal for application processes and
// kGhost for DualPar's pre-execution processes, which only ever use spare
// cycles (§III-B: "speculative execution uses only spare CPU cycles; the
// normal process always takes higher scheduling priority").
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/engine.hpp"
#include "sim/func.hpp"
#include "sim/time.hpp"

namespace dpar::cluster {

enum class CpuPriority { kNormal, kGhost };

class ComputeNode {
 public:
  ComputeNode(sim::Engine& eng, std::uint32_t node_id, std::uint32_t cores)
      : eng_(eng), node_id_(node_id), cores_(cores) {}

  ComputeNode(const ComputeNode&) = delete;
  ComputeNode& operator=(const ComputeNode&) = delete;

  /// Run a compute burst of `duration`; `done` fires when it finishes.
  void run(sim::Time duration, CpuPriority prio, sim::UniqueFunction done);

  /// Failure-domain (rack) the node lives in. Purely descriptive here — the
  /// replica placement layer consumes it so rack-aware policies spread copies
  /// across racks. Assigned by the testbed at assembly (node id mod racks).
  void set_rack(std::uint32_t rack) { rack_ = rack; }
  std::uint32_t rack() const { return rack_; }

  std::uint32_t id() const { return node_id_; }
  std::uint32_t cores() const { return cores_; }
  std::uint32_t busy_cores() const { return busy_; }
  std::size_t queued_tasks() const { return normal_q_.size() + ghost_q_.size(); }
  sim::Time normal_cpu_time() const { return normal_time_; }
  sim::Time ghost_cpu_time() const { return ghost_time_; }

 private:
  struct Task {
    sim::Time duration;
    CpuPriority prio;
    sim::UniqueFunction done;
  };

  void dispatch();
  void start(Task task);

  sim::Engine& eng_;
  std::uint32_t node_id_;
  std::uint32_t cores_;
  std::uint32_t rack_ = 0;
  std::uint32_t busy_ = 0;
  std::deque<Task> normal_q_;
  std::deque<Task> ghost_q_;
  /// Continuations of in-service bursts (one slot per busy core, free-listed);
  /// the engine lambda captures {this, slot} instead of spilling a 64-byte
  /// callback to the heap.
  std::vector<sim::UniqueFunction> running_;
  std::vector<std::uint32_t> free_slots_;
  sim::Time normal_time_ = 0;
  sim::Time ghost_time_ = 0;
};

}  // namespace dpar::cluster
