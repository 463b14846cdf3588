// Disk device: couples the positional disk model, an I/O scheduler and the
// event engine; serves one request at a time.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "disk/blktrace.hpp"
#include "disk/model.hpp"
#include "disk/scheduler.hpp"
#include "sim/engine.hpp"

namespace dpar::fault {
class FaultInjector;
}

namespace dpar::disk {

/// Common interface so RAID compositions and plain disks interchange.
class BlockDevice {
 public:
  virtual ~BlockDevice() = default;
  virtual void submit(Request r) = 0;
  virtual std::uint64_t capacity_sectors() const = 0;
  /// Arm fault injection for this device. `owner` identifies the data server
  /// the device belongs to (used to match per-server bad-sector ranges). A
  /// null injector (the default) keeps the dispatch path fault-free.
  virtual void set_fault_injector(fault::FaultInjector* inj, std::uint32_t owner) {
    (void)inj;
    (void)owner;
  }
  /// The device's dispatch trace (the first member's, for RAID).
  virtual BlkTrace& trace() = 0;
  /// Keep the full dispatch event list of the trace that trace() returns.
  virtual void set_keep_trace_events(bool keep) = 0;
};

class DiskDevice final : public BlockDevice {
 public:
  DiskDevice(sim::Engine& eng, DiskParams params, std::unique_ptr<IoScheduler> sched);

  void submit(Request r) override;
  std::uint64_t capacity_sectors() const override { return model_.params().capacity_sectors(); }
  void set_fault_injector(fault::FaultInjector* inj, std::uint32_t owner) override {
    injector_ = inj;
    owner_ = owner;
  }
  BlkTrace& trace() override { return trace_; }
  void set_keep_trace_events(bool keep) override { trace_.set_keep_events(keep); }

  const DiskModel& model() const { return model_; }
  IoScheduler& scheduler() { return *sched_; }

  /// Total time the disk spent servicing requests (utilization numerator).
  sim::Time busy_time() const { return busy_time_; }
  std::uint64_t requests_served() const { return served_; }
  std::uint64_t bytes_served() const { return bytes_; }

 private:
  void poll();

  sim::Engine& eng_;
  DiskModel model_;
  std::unique_ptr<IoScheduler> sched_;
  BlkTrace trace_;
  /// The one request in service while busy_; parked here so the completion
  /// event captures only `this` instead of spilling the request (and its
  /// callback) into a heap-allocated closure.
  Request inflight_;
  /// Outcome of the in-service request, decided at dispatch time.
  fault::Status inflight_status_ = fault::Status::kOk;
  fault::FaultInjector* injector_ = nullptr;
  std::uint32_t owner_ = 0;
  bool busy_ = false;
  sim::EventId wait_event_{};
  sim::Time busy_time_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t bytes_ = 0;
};

/// RAID-0 pair (the paper's per-server hardware RAID of two drives): stripes
/// requests over two member disks at a fixed chunk size and completes when
/// all member requests finish.
class Raid0Device final : public BlockDevice {
 public:
  Raid0Device(sim::Engine& eng, DiskParams params, std::unique_ptr<IoScheduler> s0,
              std::unique_ptr<IoScheduler> s1, std::uint64_t chunk_sectors = 128);

  void submit(Request r) override;
  std::uint64_t capacity_sectors() const override;
  void set_fault_injector(fault::FaultInjector* inj, std::uint32_t owner) override {
    d0_.set_fault_injector(inj, owner);
    d1_.set_fault_injector(inj, owner);
  }
  BlkTrace& trace() override { return d0_.trace(); }
  /// Only member 0's list is ever read (trace() returns it), so member 1
  /// never keeps one.
  void set_keep_trace_events(bool keep) override { d0_.set_keep_trace_events(keep); }

  DiskDevice& member(int i) { return i == 0 ? d0_ : d1_; }

 private:
  /// A member-local piece of a logical request.
  struct Piece {
    int member;
    std::uint64_t lba;
    std::uint64_t sectors;
  };

  DiskDevice d0_, d1_;
  std::uint64_t chunk_sectors_;
  std::uint64_t next_id_ = 1;
  /// submit()'s split scratch, kept across calls.
  std::vector<Piece> pieces_;
  /// Completions of requests split over both members.
  fault::StatusFanIns<CompletionFn> fans_;
};

}  // namespace dpar::disk
