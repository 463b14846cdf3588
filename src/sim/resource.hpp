// Generic serially-served FIFO resource.
//
// Models any device that serves one job at a time with a caller-supplied
// service time: a NIC transmit path, a metadata-server CPU, a memcached
// service thread. Jobs queue in arrival order in a SlotFifo ring, which keeps
// up to kRetainedCapacity jobs of storage across bursts (std::deque allocated
// and freed a 512-byte chunk every few jobs).
#pragma once

#include <cstdint>
#include <utility>

#include "sim/engine.hpp"
#include "sim/func.hpp"
#include "sim/slab.hpp"

namespace dpar::sim {

class FifoResource {
 public:
  using Callback = UniqueFunction;

  explicit FifoResource(Engine& eng) : eng_(eng) {}

  FifoResource(const FifoResource&) = delete;
  FifoResource& operator=(const FifoResource&) = delete;

  /// Enqueue a job needing `service` time; `done` fires when it completes.
  void submit(Time service, Callback done) {
    total_jobs_++;
    // An idle resource has an empty queue: serve the job without the ring
    // round trip.
    if (!busy_) {
      start(service, std::move(done));
      return;
    }
    queue_.push_back(Job{service, std::move(done)});
  }

  bool busy() const { return busy_; }
  std::size_t queue_length() const { return queue_.size(); }
  std::uint64_t total_jobs() const { return total_jobs_; }
  /// Total time this resource has spent serving (utilization numerator).
  Time busy_time() const { return busy_time_; }

 private:
  struct Job {
    Time service = 0;
    Callback done;
  };

  void start_next() {
    if (queue_.empty()) {
      busy_ = false;
      return;
    }
    Job job = queue_.pop_front();
    start(job.service, std::move(job.done));
  }

  void start(Time service, Callback&& job_done) {
    busy_ = true;
    busy_time_ += service;
    // One job is in service at a time, so its continuation parks in a member
    // slot and the engine lambda captures only `this` — re-capturing the
    // 64-byte Callback would spill past the engine's inline buffer.
    current_done_ = std::move(job_done);
    eng_.after(service, inline_fn([this] {
      // Finish the current job, then pull the next one; completing before
      // starting keeps queue-length observations consistent.
      Callback done = std::move(current_done_);
      done();
      start_next();
    }));
  }

  Engine& eng_;
  SlotFifo<Job> queue_;
  Callback current_done_;
  bool busy_ = false;
  Time busy_time_ = 0;
  std::uint64_t total_jobs_ = 0;
};

}  // namespace dpar::sim
