#include "simnet/clock.h"

#include <algorithm>

namespace gks::simnet {

/// One thread blocked in wait(). Lives on that thread's stack; the
/// waker unlinks it, so a woken waiter is never touched again.
struct VirtualClock::Waiter {
  Waiter(const void* k, double w, const std::function<double(double)>* p)
      : key(k), wake(w), poll(p) {}

  const void* key;
  double wake;  ///< virtual time at which to re-poll
  /// The waiter's poll. In event-driven mode the waking thread runs it
  /// (under the lock, while the waiter sleeps) and wakes the waiter
  /// only once its wait is over: one context switch per wait.
  const std::function<double(double)>* poll;
  bool woken = false;
  std::condition_variable cv;
};

VirtualClock::VirtualClock(double scale, TimeMode mode)
    : scale_(scale), mode_(mode), epoch_(std::chrono::steady_clock::now()) {
  GKS_REQUIRE(scale > 0, "time scale must be positive");
}

double VirtualClock::now() const {
  if (!event_driven()) {
    return to_virtual(std::chrono::steady_clock::now() - epoch_);
  }
  std::lock_guard<std::mutex> lock(mu_);
  return now_;
}

void VirtualClock::sleep_virtual(double virtual_seconds) const {
  if (virtual_seconds <= 0) return;
  if (!event_driven()) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(virtual_seconds * scale_));
    return;
  }
  double until = -1;
  wait(nullptr, [&](double now) {
    if (until < 0) until = now + virtual_seconds;
    return until;
  });
}

double VirtualClock::to_virtual(
    std::chrono::steady_clock::duration real) const {
  return std::chrono::duration<double>(real).count() / scale_;
}

std::chrono::steady_clock::time_point VirtualClock::deadline(
    double virtual_seconds) const {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(virtual_seconds * scale_));
}

bool VirtualClock::is_participant_locked(std::thread::id id) const {
  return std::find(participants_.begin(), participants_.end(), id) !=
         participants_.end();
}

void VirtualClock::wake_locked(Waiter* w) const {
  waiters_.erase(std::find(waiters_.begin(), waiters_.end(), w));
  w->woken = true;
  if (event_driven()) --blocked_;
  w->cv.notify_one();
}

void VirtualClock::repoll_locked(const std::vector<Waiter*>& waiters) const {
  for (Waiter* w : waiters) {
    w->wake = (*w->poll)(now_);
    if (w->wake <= now_) wake_locked(w);
  }
}

void VirtualClock::advance_locked() const {
  // Only when nobody can act at the current instant may time move, and
  // then only to the first instant at which somebody can.
  while (blocked_ > 0 && blocked_ == participants_.size() + reserved_) {
    double next = kNever;
    for (const Waiter* w : waiters_) next = std::min(next, w->wake);
    if (next == kNever) return;  // only a notify can wake anyone now
    now_ = std::max(now_, next);
    std::vector<Waiter*> due;
    for (Waiter* w : waiters_) {
      if (w->wake <= now_) due.push_back(w);
    }
    repoll_locked(due);
  }
}

std::vector<VirtualClock::Waiter*> VirtualClock::keyed_locked(
    const void* key) const {
  std::vector<Waiter*> hit;
  for (Waiter* w : waiters_) {
    if (w->key == key) hit.push_back(w);
  }
  return hit;
}

void VirtualClock::wait(const void* key,
                        const std::function<double(double)>& poll) const {
  std::unique_lock<std::mutex> lock(mu_);
  const auto self = std::this_thread::get_id();
  const bool guest = event_driven() && !is_participant_locked(self);
  if (guest) participants_.push_back(self);
  for (;;) {
    const double t =
        event_driven()
            ? now_
            : to_virtual(std::chrono::steady_clock::now() - epoch_);
    const double wake = poll(t);
    if (wake <= t) break;
    Waiter me{key, wake, &poll};
    waiters_.push_back(&me);
    if (event_driven()) {
      ++blocked_;
      advance_locked();
      me.cv.wait(lock, [&] { return me.woken; });
      break;  // woken only once its poll was satisfied
    } else if (wake == kNever) {
      me.cv.wait(lock, [&] { return me.woken; });
    } else {
      // Clamped so a far-off wake time cannot overflow the time point.
      const double real_s = std::min(wake * scale_, 1e9);
      me.cv.wait_until(
          lock,
          epoch_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                       std::chrono::duration<double>(real_s)),
          [&] { return me.woken; });
      if (!me.woken) {
        waiters_.erase(std::find(waiters_.begin(), waiters_.end(), &me));
      }
    }
  }
  if (guest) {
    participants_.erase(
        std::find(participants_.begin(), participants_.end(), self));
    advance_locked();
  }
}

void VirtualClock::notify(const void* key) const {
  std::lock_guard<std::mutex> lock(mu_);
  notify_locked(key);
}

void VirtualClock::notify_locked(const void* key) const {
  if (!event_driven()) {
    // The waiter re-polls on its own thread and re-arms its timer.
    for (Waiter* w : keyed_locked(key)) wake_locked(w);
    return;
  }
  repoll_locked(keyed_locked(key));
  advance_locked();  // a notify from outside may leave all blocked
}

void VirtualClock::reserve_participant() const {
  if (!event_driven()) return;
  std::lock_guard<std::mutex> lock(mu_);
  ++reserved_;
}

void VirtualClock::adopt_reserved(std::thread::id id) const {
  if (!event_driven()) return;
  std::lock_guard<std::mutex> lock(mu_);
  --reserved_;
  participants_.push_back(id);
}

void VirtualClock::retire(std::thread::id id, bool* exited) const {
  std::lock_guard<std::mutex> lock(mu_);
  *exited = true;
  if (event_driven()) {
    participants_.erase(
        std::find(participants_.begin(), participants_.end(), id));
  }
  // The joiner is woken before time may move: it is runnable at the
  // very instant this thread ends.
  notify_locked(exited);
}

VirtualClock::Participant::Participant(const VirtualClock& clock)
    : clock_(clock) {
  if (!clock_.event_driven()) return;
  std::lock_guard<std::mutex> lock(clock_.mu_);
  const auto self = std::this_thread::get_id();
  GKS_REQUIRE(!clock_.is_participant_locked(self),
              "thread already takes part in this clock");
  clock_.participants_.push_back(self);
}

VirtualClock::Participant::~Participant() {
  if (!clock_.event_driven()) return;
  std::lock_guard<std::mutex> lock(clock_.mu_);
  clock_.participants_.erase(std::find(clock_.participants_.begin(),
                                       clock_.participants_.end(),
                                       std::this_thread::get_id()));
  clock_.advance_locked();
}

ClockThread::ClockThread(const VirtualClock& clock, std::function<void()> body)
    : clock_(&clock), exited_(std::make_unique<bool>(false)) {
  clock.reserve_participant();
  thread_ = std::thread(
      [&clock, exited = exited_.get(), body = std::move(body)] {
        clock.adopt_reserved(std::this_thread::get_id());
        body();
        clock.retire(std::this_thread::get_id(), exited);
      });
}

ClockThread& ClockThread::operator=(ClockThread&& other) noexcept {
  if (this != &other) {
    join();
    clock_ = other.clock_;
    exited_ = std::move(other.exited_);
    thread_ = std::move(other.thread_);
  }
  return *this;
}

ClockThread::~ClockThread() { join(); }

void ClockThread::join() {
  if (!thread_.joinable()) return;
  const bool* exited = exited_.get();
  clock_->wait(exited, [exited](double now) { return *exited ? now : kNever; });
  thread_.join();
}

}  // namespace gks::simnet
