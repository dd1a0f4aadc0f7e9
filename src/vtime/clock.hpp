// Virtual clocks for direct-execution simulation.
//
// Every thread that participates in timing (compute threads and each node's
// communication thread) owns a ThreadClock. Between runtime events the owning
// thread advances its clock by its *measured* CPU time (scaled by
// PARADE_CPU_SCALE to approximate the paper's Pentium III hosts); protocol
// code adds modeled network costs; message receipt merges the sender's
// timestamp so causality is preserved end-to-end.
#pragma once

#include <algorithm>
#include <mutex>

#include "common/timing.hpp"
#include "common/types.hpp"

namespace parade::vtime {

/// Multiplier applied to measured CPU time; from PARADE_CPU_SCALE, default 20
/// (modern core vs the paper's 550-600 MHz Pentium III).
double cpu_scale_from_env();

class ThreadClock;

/// Binds/unbinds the calling thread's virtual clock. The mp and dsm layers
/// charge communication costs to the bound clock; unbound threads run
/// untimed. Pass nullptr to unbind.
void bind_thread_clock(ThreadClock* clock);
ThreadClock* thread_clock();

/// Single-owner virtual clock. NOT thread-safe: only the owning thread may
/// call sync_cpu/add; merge() of a foreign timestamp is also done by the
/// owner after it has received the value through a message.
class ThreadClock {
 public:
  explicit ThreadClock(double cpu_scale = 1.0) : scale_(cpu_scale) {}

  /// Advances by the CPU time this thread consumed since the last call
  /// (scaled). Call at every runtime-event boundary so compute work between
  /// events is attributed to virtual time. Negative laps (clock constructed
  /// on a different thread) are clamped to zero — call reset() when a clock
  /// changes owner.
  void sync_cpu() {
    const std::int64_t lap = lap_.lap();
    if (lap > 0) now_us_ += ns_to_us(lap) * scale_;
  }

  /// Discards CPU time consumed since the last sync without charging it
  /// (used around untimed bookkeeping such as result printing).
  void discard_cpu() { lap_.lap(); }

  void add(VirtualUs us) { now_us_ += us; }
  void merge(VirtualUs ts_us) { now_us_ = std::max(now_us_, ts_us); }
  VirtualUs now() const { return now_us_; }
  void reset(VirtualUs to = 0.0) {
    now_us_ = to;
    lap_.lap();
  }
  double scale() const { return scale_; }

 private:
  VirtualUs now_us_ = 0.0;
  CpuLapTimer lap_;
  double scale_;
};

/// Stamps an outgoing message on the calling thread's clock: charges the CPU
/// time since the last event plus `overhead_us`, and returns the send time
/// (0 when the thread runs untimed).
inline VirtualUs charge_send(VirtualUs overhead_us) {
  ThreadClock* clock = thread_clock();
  if (clock == nullptr) return 0.0;
  clock->sync_cpu();
  clock->add(overhead_us);
  return clock->now();
}

/// Thread-safe per-node ledger of communication-thread CPU consumption within
/// the current synchronization phase. When the comm thread does not have a
/// dedicated CPU, the phase total is charged to the node's compute timeline
/// at the next inter-node synchronization (paper's 1Thread-1CPU and
/// 2Thread-2CPU configurations).
class CommLedger {
 public:
  void charge(VirtualUs us) {
    std::lock_guard lock(mutex_);
    phase_us_ += us;
    total_us_ += us;
  }

  /// Returns and clears the current phase's accumulated cost.
  VirtualUs drain_phase() {
    std::lock_guard lock(mutex_);
    const VirtualUs value = phase_us_;
    phase_us_ = 0.0;
    return value;
  }

  VirtualUs total() const {
    std::lock_guard lock(mutex_);
    return total_us_;
  }

 private:
  mutable std::mutex mutex_;
  VirtualUs phase_us_ = 0.0;
  VirtualUs total_us_ = 0.0;
};

}  // namespace parade::vtime
