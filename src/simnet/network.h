#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "simnet/channel.h"
#include "simnet/clock.h"
#include "simnet/message.h"
#include "support/rng.h"

namespace gks::simnet {

/// An in-process network of nodes connected in a tree — the simulated
/// stand-in for the paper's "small network of PCs" (DESIGN.md §1).
///
/// Each node owns one mailbox for all incoming traffic and runs its
/// role logic on its own thread, so the dispatch pattern executes with
/// real concurrency; only the *durations* (link transfer times, device
/// compute times) are virtual, kept by the shared VirtualClock. In
/// event-driven mode every thread that touches the network must take
/// part in the clock: node threads do (start() makes them
/// ClockThreads); the calling thread holds a VirtualClock::Participant.
///
/// Failure injection: a node marked down neither receives nor emits
/// messages (a crashed or partitioned PC); links may also drop
/// messages probabilistically. Both are observed by the dispatch layer
/// purely as timeouts, exactly as a real master would see them.
class Network {
 public:
  static constexpr std::uint64_t kDefaultSeed = 2014;

  explicit Network(double time_scale = 1e-3,
                   std::uint64_t seed = kDefaultSeed,
                   TimeMode mode = TimeMode::kWallClock);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Adds a node; returns its id (dense, in creation order).
  NodeId add_node(std::string name);

  /// Declares `child` to be dispatched to by `parent` over a link.
  /// Each node has at most one parent; messages may flow both ways.
  void connect(NodeId parent, NodeId child, LinkSpec spec = {});

  const VirtualClock& clock() const { return clock_; }
  std::size_t node_count() const { return nodes_.size(); }
  const std::string& name_of(NodeId id) const;
  std::optional<NodeId> parent_of(NodeId id) const;
  const std::vector<NodeId>& children_of(NodeId id) const;

  /// Sends `payload` from `from` to `to`. The nodes must share a link.
  /// Silently dropped when either endpoint is down or the link loses
  /// the message — senders never learn about failures except through
  /// missing replies, as on a real network.
  void send(NodeId from, NodeId to, std::any payload,
            std::size_t wire_size = 64);

  /// Receives the next deliverable message for `self`, waiting at most
  /// `timeout_virtual_s` virtual seconds (negative: forever).
  std::optional<Message> recv(NodeId self, double timeout_virtual_s = -1.0);

  /// Marks a node crashed/recovered.
  void set_node_down(NodeId id, bool down);
  bool is_down(NodeId id) const;

  /// Changes the loss probability of the link between two connected
  /// nodes at runtime — a flaky or partitioned path. Unlike a crash,
  /// both endpoints stay alive, so a partitioned subtree can rejoin
  /// when the path heals (the paper's "temporarily inactive" nodes).
  void set_link_loss(NodeId a, NodeId b, double probability);

  /// Starts `body` as the node's thread. Each node may be started once.
  void start(NodeId id, std::function<void()> body);

  /// Joins all started node threads (a clock-aware join).
  void join_all();

 private:
  struct NodeState {
    std::string name;
    std::unique_ptr<Mailbox> mailbox;
    std::optional<NodeId> parent;
    std::vector<NodeId> children;
    std::map<NodeId, LinkSpec> links;
    bool down = false;
    ClockThread thread;
  };

  NodeState& node(NodeId id);
  const NodeState& node(NodeId id) const;

  VirtualClock clock_;
  std::vector<std::unique_ptr<NodeState>> nodes_;
  mutable std::mutex mu_;  ///< guards down flags and loss RNG
  SplitMix64 rng_;
};

}  // namespace gks::simnet
