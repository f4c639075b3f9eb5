#pragma once

#include <chrono>
#include <condition_variable>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "support/error.h"

namespace gks::simnet {

/// How a VirtualClock makes virtual time pass.
enum class TimeMode {
  /// Virtual time is real time divided by the scale: waits really
  /// sleep. Needed whenever a duration is real (CPU searchers, or
  /// threads that cannot register with the clock).
  kWallClock,
  /// Conservative discrete-event time: a counter that jumps to the
  /// earliest pending wake-up once every participant thread is
  /// blocked on the clock. Host speed cannot leak into virtual time,
  /// and a run costs only the CPU time of its computation.
  kEventDriven,
};

inline constexpr double kNever = std::numeric_limits<double>::infinity();

/// Simulated time shared by every node and link of a Network.
///
/// The cluster of simulated GPUs computes in *virtual* seconds (a GTX
/// 660 grinding 10^9 keys takes ~0.5 virtual seconds). In wall-clock
/// mode the clock realizes them as real sleeps scaled by `scale`: with
/// the default 1e-3, a 100-virtual-second experiment runs in 0.1 s
/// while preserving the relative timing of every node and link, which
/// is all the Section III cost model depends on. A scale of 1.0 makes
/// virtual time real time (nodes doing real CPU cracking work).
///
/// In event-driven mode nothing sleeps. Every thread that waits on the
/// clock is a *participant*; time stands still while any participant
/// runs and jumps to the earliest wake-up once all of them wait (a
/// sleep's end, a receive timeout, a message delivery). Computation
/// therefore takes zero virtual time, and a run is a pure function of
/// its inputs. Threads join the clock through ClockThread (or a
/// Participant guard for the thread that runs the root); a thread
/// that waits without having joined counts as a participant for the
/// duration of that wait only.
class VirtualClock {
 public:
  explicit VirtualClock(double scale = 1e-3,
                        TimeMode mode = TimeMode::kWallClock);

  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  double scale() const { return scale_; }
  bool event_driven() const { return mode_ == TimeMode::kEventDriven; }

  /// Virtual seconds since the clock was made.
  double now() const;

  /// Blocks the calling thread for `virtual_seconds` of simulated time.
  void sleep_virtual(double virtual_seconds) const;

  /// Blocks until `poll(now)` returns a wake time at or before `now`.
  /// `poll` runs under the clock's lock, possibly on the thread that
  /// woke the caller: at entry, after notify(key), and when virtual
  /// time reaches the wake time it last returned (kNever: only
  /// notify(key) can wake the caller). It may take locks that are
  /// never held while calling into the clock, and once it returns a
  /// time at or before `now` it is not called again.
  void wait(const void* key,
            const std::function<double(double now)>& poll) const;

  /// Re-polls the waiters registered under `key`. Call after changing
  /// the state their poll reads, without holding the lock poll takes.
  void notify(const void* key) const;

  /// Virtual seconds elapsed between two real-time points (wall-clock
  /// mode only: event-driven virtual time has no real counterpart).
  double to_virtual(std::chrono::steady_clock::duration real) const;

  /// Real deadline for something `virtual_seconds` in the future
  /// (wall-clock mode only).
  std::chrono::steady_clock::time_point deadline(
      double virtual_seconds) const;

  /// Registers the calling thread as a participant for the guard's
  /// lifetime. A no-op in wall-clock mode.
  class Participant {
   public:
    explicit Participant(const VirtualClock& clock);
    ~Participant();
    Participant(const Participant&) = delete;
    Participant& operator=(const Participant&) = delete;

   private:
    const VirtualClock& clock_;
  };

 private:
  friend class ClockThread;
  struct Waiter;

  // All of the following run under mu_.
  bool is_participant_locked(std::thread::id id) const;
  void wake_locked(Waiter* w) const;
  void repoll_locked(const std::vector<Waiter*>& waiters) const;
  void advance_locked() const;
  std::vector<Waiter*> keyed_locked(const void* key) const;
  void notify_locked(const void* key) const;

  void reserve_participant() const;
  void adopt_reserved(std::thread::id id) const;
  void retire(std::thread::id id, bool* exited) const;

  double scale_;
  TimeMode mode_;
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  mutable double now_ = 0;  ///< event-driven virtual time
  mutable std::vector<Waiter*> waiters_;
  mutable std::vector<std::thread::id> participants_;
  mutable std::size_t reserved_ = 0;  ///< spawned, not yet running
  mutable std::size_t blocked_ = 0;   ///< participants inside wait()
};

/// A thread that takes part in a clock's time. In event-driven mode it
/// counts as a participant from construction (before it runs) until
/// its body returns, so no virtual time passes around its start or
/// its exit. In wall-clock mode it is a plain thread.
class ClockThread {
 public:
  ClockThread() = default;
  ClockThread(const VirtualClock& clock, std::function<void()> body);
  ClockThread(ClockThread&&) noexcept = default;
  ClockThread& operator=(ClockThread&& other) noexcept;
  ~ClockThread();

  bool joinable() const { return thread_.joinable(); }

  /// Waits for the body to return. The caller waits on the clock, and
  /// the exiting thread wakes it in the same step that retires it, so
  /// time cannot jump in between.
  void join();

 private:
  const VirtualClock* clock_ = nullptr;
  std::unique_ptr<bool> exited_;  ///< guarded by the clock's lock
  std::thread thread_;
};

}  // namespace gks::simnet
