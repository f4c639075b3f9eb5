#include "simnet/network.h"

#include "support/error.h"

namespace gks::simnet {

Network::Network(double time_scale, std::uint64_t seed, TimeMode mode)
    : clock_(time_scale, mode), rng_(seed) {}

Network::~Network() { join_all(); }

NodeId Network::add_node(std::string name) {
  const auto id = static_cast<NodeId>(nodes_.size());
  auto state = std::make_unique<NodeState>();
  state->name = std::move(name);
  // The mailbox's own LinkSpec is unused (per-link specs apply at
  // send time); it only needs the clock.
  state->mailbox = std::make_unique<Mailbox>(clock_, LinkSpec{});
  nodes_.push_back(std::move(state));
  return id;
}

Network::NodeState& Network::node(NodeId id) {
  GKS_REQUIRE(id < nodes_.size(), "unknown node id");
  return *nodes_[id];
}

const Network::NodeState& Network::node(NodeId id) const {
  GKS_REQUIRE(id < nodes_.size(), "unknown node id");
  return *nodes_[id];
}

void Network::connect(NodeId parent, NodeId child, LinkSpec spec) {
  GKS_REQUIRE(parent != child, "a node cannot dispatch to itself");
  NodeState& p = node(parent);
  NodeState& c = node(child);
  GKS_REQUIRE(!c.parent.has_value(), "node already has a parent");
  c.parent = parent;
  p.children.push_back(child);
  p.links[child] = spec;
  c.links[parent] = spec;
}

const std::string& Network::name_of(NodeId id) const {
  return node(id).name;
}

std::optional<NodeId> Network::parent_of(NodeId id) const {
  return node(id).parent;
}

const std::vector<NodeId>& Network::children_of(NodeId id) const {
  return node(id).children;
}

void Network::send(NodeId from, NodeId to, std::any payload,
                   std::size_t wire_size) {
  NodeState& src = node(from);
  NodeState& dst = node(to);
  const auto link = src.links.find(to);
  GKS_REQUIRE(link != src.links.end(), "nodes are not connected");

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (src.down || dst.down) return;  // crashed endpoint: message lost
    if (link->second.loss_probability > 0 &&
        rng_.uniform01() < link->second.loss_probability) {
      return;  // link loss
    }
  }

  Message msg{from, std::move(payload), wire_size};
  dst.mailbox->send_with_delay(std::move(msg),
                               link->second.transfer_seconds(wire_size));
}

std::optional<Message> Network::recv(NodeId self, double timeout_virtual_s) {
  return node(self).mailbox->recv(timeout_virtual_s);
}

void Network::set_link_loss(NodeId a, NodeId b, double probability) {
  GKS_REQUIRE(probability >= 0 && probability <= 1,
              "loss probability must be in [0, 1]");
  NodeState& na = node(a);
  NodeState& nb = node(b);
  const auto ab = na.links.find(b);
  const auto ba = nb.links.find(a);
  GKS_REQUIRE(ab != na.links.end() && ba != nb.links.end(),
              "nodes are not connected");
  std::lock_guard<std::mutex> lock(mu_);
  ab->second.loss_probability = probability;
  ba->second.loss_probability = probability;
}

void Network::set_node_down(NodeId id, bool down) {
  std::lock_guard<std::mutex> lock(mu_);
  node(id).down = down;
}

bool Network::is_down(NodeId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return node(id).down;
}

void Network::start(NodeId id, std::function<void()> body) {
  NodeState& n = node(id);
  GKS_REQUIRE(!n.thread.joinable(), "node already started");
  n.thread = ClockThread(clock_, std::move(body));
}

void Network::join_all() {
  for (auto& n : nodes_) n->thread.join();
}

}  // namespace gks::simnet
