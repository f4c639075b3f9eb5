#include "simnet/channel.h"

#include <algorithm>
#include <tuple>

namespace gks::simnet {

void Mailbox::send_with_delay(Message msg, double virtual_delay_s) {
  const double deliver_at = clock_.now() + virtual_delay_s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back({deliver_at, next_seq_++, std::move(msg)});
  }
  clock_.notify(this);
}

std::optional<Message> Mailbox::pop_deliverable_locked(double now) {
  // Messages are appended in send order but may carry different
  // delays; deliver the earliest-deadline message that is ready.
  const auto order = [](const Pending& p) {
    return std::tie(p.deliver_at, p.msg.from, p.seq);
  };
  auto best = queue_.end();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->deliver_at <= now &&
        (best == queue_.end() || order(*it) < order(*best))) {
      best = it;
    }
  }
  if (best == queue_.end()) return std::nullopt;
  Message msg = std::move(best->msg);
  queue_.erase(best);
  return msg;
}

std::optional<Message> Mailbox::try_recv() {
  const double now = clock_.now();
  std::lock_guard<std::mutex> lock(mu_);
  return pop_deliverable_locked(now);
}

std::optional<Message> Mailbox::recv(double timeout_virtual_s) {
  std::optional<Message> got;
  double give_up = -1;
  clock_.wait(this, [&](double now) {
    if (give_up < 0) {
      give_up = timeout_virtual_s >= 0 ? now + timeout_virtual_s : kNever;
    }
    std::lock_guard<std::mutex> lock(mu_);
    got = pop_deliverable_locked(now);
    if (got || now >= give_up) return now;
    // Wake at the earliest of the next in-flight delivery and the
    // timeout; a new send re-polls through notify().
    double wake = give_up;
    for (const Pending& p : queue_) wake = std::min(wake, p.deliver_at);
    return wake;
  });
  return got;
}

}  // namespace gks::simnet
