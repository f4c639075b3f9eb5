#include "core/cluster.h"

#include <algorithm>
#include <map>
#include <memory>

#include "core/cpu_backend.h"
#include "simgpu/arch.h"
#include "support/error.h"

namespace gks::core {
namespace {

struct BuiltNode {
  simnet::NodeId id;
  std::unique_ptr<dispatch::NodeAgent> agent;
};

/// Recursively adds the topology to the network and instantiates each
/// node's agent with its device searchers.
simnet::NodeId build_tree(simnet::Network& net, const ClusterNode& spec,
                          const CrackRequest& request,
                          const ClusterOptions& options,
                          const std::vector<u128>& planted,
                          std::vector<BuiltNode>& out) {
  const simnet::NodeId id = net.add_node(spec.name);

  std::vector<std::unique_ptr<dispatch::IntervalSearcher>> devices;
  for (const ClusterDevice& dev : spec.devices) {
    if (dev.kind == ClusterDevice::Kind::kCpu) {
      devices.push_back(
          std::make_unique<CpuSearcher>(request, dev.cpu_threads));
    } else {
      const simgpu::DeviceSpec& gpu_spec =
          simgpu::device_by_name(dev.gpu_short_name);
      devices.push_back(std::make_unique<SimGpuSearcher>(
          request, simgpu::SimulatedGpu(gpu_spec),
          our_kernel_profile(request.algorithm, gpu_spec.cc),
          options.gpu_mode, planted));
    }
  }

  out.push_back(
      {id, std::make_unique<dispatch::NodeAgent>(net, id, std::move(devices),
                                                 options.agent)});

  for (const ClusterNode& child : spec.children) {
    const simnet::NodeId child_id =
        build_tree(net, child, request, options, planted, out);
    net.connect(id, child_id, child.uplink);
  }
  return id;
}

/// True when every device in the tree is a simulated GPU, whose
/// SimGpuSearcher reports model time (is_simulated()): the run then
/// needs no real duration and can use event-driven virtual time.
bool model_timed(const ClusterNode& spec) {
  for (const ClusterDevice& dev : spec.devices) {
    if (dev.kind != ClusterDevice::Kind::kSimGpu) return false;
  }
  return std::all_of(spec.children.begin(), spec.children.end(),
                     model_timed);
}

}  // namespace

ClusterCracker::ClusterCracker(ClusterNode topology, ClusterOptions options)
    : topology_(std::move(topology)), options_(std::move(options)) {}

dispatch::SearchReport ClusterCracker::crack(const CrackRequest& request) {
  request.validate();

  std::vector<u128> planted;
  if (options_.planted_key) {
    GKS_REQUIRE(request.matches(*options_.planted_key),
                "planted key does not hash to the target");
    planted.push_back(request.id_of(*options_.planted_key));
  } else {
    GKS_REQUIRE(options_.gpu_mode != SimGpuMode::kModel,
                "model-mode simulated GPUs need a planted key to find");
  }

  // Declared before the network, so that on an early exit the network
  // joins the node threads before the agents they run are destroyed.
  std::vector<BuiltNode> nodes;
  simnet::Network net(options_.time_scale, simnet::Network::kDefaultSeed,
                      model_timed(topology_)
                          ? simnet::TimeMode::kEventDriven
                          : simnet::TimeMode::kWallClock);
  // This thread runs the root agent: it takes part in the clock for
  // the whole run, so time waits for it between its own waits.
  const simnet::VirtualClock::Participant self(net.clock());
  const simnet::NodeId root =
      build_tree(net, topology_, request, options_, planted, nodes);
  GKS_ENSURE(root == 0, "root must be the first node");

  // Non-root agents serve on their node threads.
  dispatch::NodeAgent* root_agent = nullptr;
  for (BuiltNode& built : nodes) {
    if (built.id == root) {
      root_agent = built.agent.get();
      continue;
    }
    dispatch::NodeAgent* agent = built.agent.get();
    net.start(built.id, [agent] { agent->serve(); });
  }

  // Failure injection runs on its own thread against virtual time.
  simnet::ClockThread failure_thread;
  if (!options_.failures.empty()) {
    std::map<std::string, simnet::NodeId> by_name;
    for (const BuiltNode& built : nodes) {
      by_name[net.name_of(built.id)] = built.id;
    }
    auto events = options_.failures;
    std::sort(events.begin(), events.end(),
              [](const FailureEvent& a, const FailureEvent& b) {
                return a.at_virtual_s < b.at_virtual_s;
              });
    failure_thread = simnet::ClockThread(net.clock(), [&net, by_name, events] {
      double elapsed = 0;
      for (const FailureEvent& ev : events) {
        net.clock().sleep_virtual(ev.at_virtual_s - elapsed);
        elapsed = ev.at_virtual_s;
        const auto it = by_name.find(ev.node_name);
        if (it != by_name.end()) net.set_node_down(it->second, true);
      }
    });
  }

  const keyspace::Interval space = request.space_interval();
  const keyspace::Interval scratch(
      u128(0), std::min(space.end, options_.tune_scratch));
  dispatch::SearchReport report = root_agent->run_root(space, scratch);

  net.join_all();
  failure_thread.join();
  return report;
}

ClusterNode ClusterCracker::paper_topology() {
  // Section VI-A: "Node A dispatches part of the work to nodes B and
  // C; node C dispatches part of the work to node D."
  ClusterNode d{"node-D", {ClusterDevice::gpu("8800")}, {}, {}};
  ClusterNode c{"node-C", {ClusterDevice::gpu("8600M")}, {d}, {}};
  ClusterNode b{
      "node-B", {ClusterDevice::gpu("660"), ClusterDevice::gpu("550Ti")},
      {},
      {}};
  ClusterNode a{"node-A", {ClusterDevice::gpu("540M")}, {b, c}, {}};
  return a;
}

}  // namespace gks::core
