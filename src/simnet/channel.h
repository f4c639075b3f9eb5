#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>

#include "simnet/clock.h"
#include "simnet/message.h"

namespace gks::simnet {

/// Properties of a point-to-point link. Defaults model a switched
/// 1 Gbit/s LAN like the paper's small PC network.
struct LinkSpec {
  double latency_s = 200e-6;      ///< one-way latency, virtual seconds
  double bandwidth_bps = 1e9;     ///< payload bandwidth, bits/second
  double loss_probability = 0.0;  ///< per-message drop chance (failure injection)

  /// Virtual transfer time of a message of `bytes` payload.
  double transfer_seconds(std::size_t bytes) const {
    return latency_s + static_cast<double>(bytes) * 8.0 / bandwidth_bps;
  }
};

/// One direction of a link: a MPSC mailbox whose messages become
/// visible only after their simulated transfer time has elapsed.
/// Thread-safe; any node-thread may send, the owning node receives.
class Mailbox {
 public:
  Mailbox(const VirtualClock& clock, LinkSpec spec)
      : clock_(clock), spec_(spec) {}

  /// Enqueues a message; it is deliverable after the mailbox link's
  /// virtual latency + serialization delay.
  void send(Message msg) {
    const double delay = spec_.transfer_seconds(msg.wire_size);
    send_with_delay(std::move(msg), delay);
  }

  /// Enqueues a message deliverable after an explicit virtual delay —
  /// used by Network, where the delay comes from the per-edge LinkSpec
  /// rather than this mailbox's default.
  void send_with_delay(Message msg, double virtual_delay_s);

  /// Blocks until a message is deliverable or `timeout_virtual_s`
  /// virtual seconds elapse; returns nullopt on timeout. A negative
  /// timeout waits forever.
  std::optional<Message> recv(double timeout_virtual_s = -1.0);

  /// Non-blocking receive of an already-deliverable message.
  /// Messages due at one virtual instant come out ordered by sender
  /// id, then by send order, whatever order the threads ran in.
  std::optional<Message> try_recv();

  const LinkSpec& spec() const { return spec_; }

 private:
  struct Pending {
    double deliver_at;  ///< virtual seconds on the clock
    std::uint64_t seq;  ///< send order
    Message msg;
  };

  std::optional<Message> pop_deliverable_locked(double now);

  const VirtualClock& clock_;
  LinkSpec spec_;
  std::mutex mu_;  ///< taken inside the clock's lock, never around it
  std::deque<Pending> queue_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace gks::simnet
