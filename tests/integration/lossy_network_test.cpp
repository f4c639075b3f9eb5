// Dispatch robustness under message loss: dropped WorkAssigns or
// WorkResults look like slow children; the round timeout requeues
// their intervals, so coverage and correctness must survive any loss
// rate below total blackout (at the price of throughput).

#include <gtest/gtest.h>

#include <memory>

#include "dispatch/agent.h"
#include "simnet/network.h"

namespace gks {
namespace {

using dispatch::AgentConfig;
using dispatch::IntervalSearcher;
using dispatch::NodeAgent;
using dispatch::ScanOutcome;

class PlantedSearcher final : public IntervalSearcher {
 public:
  PlantedSearcher(double peak, std::vector<u128> planted)
      : peak_(peak), planted_(std::move(planted)) {}

  ScanOutcome scan(const keyspace::Interval& interval) override {
    ScanOutcome out;
    out.tested = interval.size();
    out.busy_virtual_s = interval.size().to_double() / peak_ + 1e-3;
    for (const u128& id : planted_) {
      if (interval.contains(id)) out.found.push_back({id, "hit"});
    }
    return out;
  }
  bool is_simulated() const override { return true; }
  double theoretical_throughput() const override { return peak_; }
  std::string description() const override { return "planted"; }

 private:
  double peak_;
  std::vector<u128> planted_;
};

TEST(LossyNetwork, SearchSurvivesHeavyMessageLoss) {
  // Model-timed devices only: the event-driven clock runs the search,
  // and the orphaned leaf's unwind, without sleeping.
  simnet::Network net(1e-4, /*seed=*/33, simnet::TimeMode::kEventDriven);
  const simnet::VirtualClock::Participant self(net.clock());
  const auto root = net.add_node("root");
  const auto leaf = net.add_node("leaf");
  simnet::LinkSpec lossy;
  lossy.loss_probability = 0.3;  // 30% of all messages vanish
  net.connect(root, leaf, lossy);

  AgentConfig config;
  config.tune.start_batch = u128(1u << 16);
  config.round_virtual_target_s = 2.0;
  config.min_timeout_real_s = 0.15;

  // Root holds the only device guaranteed reachable; the leaf helps
  // when its messages survive. The planted id must be found either
  // way because lost child work is requeued.
  std::vector<std::unique_ptr<IntervalSearcher>> root_devices;
  root_devices.push_back(std::make_unique<PlantedSearcher>(
      1e9, std::vector<u128>{u128(7'500'000'000ull)}));
  NodeAgent root_agent(net, root, std::move(root_devices), config);

  std::vector<std::unique_ptr<IntervalSearcher>> leaf_devices;
  leaf_devices.push_back(std::make_unique<PlantedSearcher>(
      1e9, std::vector<u128>{u128(7'500'000'000ull)}));
  NodeAgent leaf_agent(net, leaf, std::move(leaf_devices), config);
  net.start(leaf, [&leaf_agent] { leaf_agent.serve(); });

  const keyspace::Interval space(u128(0), u128(10'000'000'000ull));
  const auto report =
      root_agent.run_root(space, keyspace::Interval(u128(0), u128(1u << 22)));
  net.join_all();

  ASSERT_FALSE(report.found.empty());
  EXPECT_EQ(report.found[0].id, u128(7'500'000'000ull));
}

TEST(LossyNetwork, TotalBlackoutDegradesToLocalDevices) {
  // Model-timed devices only: the event-driven clock runs the search,
  // and the orphaned leaf's unwind, without sleeping.
  simnet::Network net(1e-4, /*seed=*/5, simnet::TimeMode::kEventDriven);
  const simnet::VirtualClock::Participant self(net.clock());
  const auto root = net.add_node("root");
  const auto leaf = net.add_node("leaf");
  simnet::LinkSpec dead;
  dead.loss_probability = 1.0;
  net.connect(root, leaf, dead);

  AgentConfig config;
  config.tune.start_batch = u128(1u << 16);
  config.round_virtual_target_s = 2.0;
  config.min_timeout_real_s = 0.1;
  config.orphan_timeout_real_s = 0.5;  // the leaf unwinds quickly

  std::vector<std::unique_ptr<IntervalSearcher>> root_devices;
  root_devices.push_back(
      std::make_unique<PlantedSearcher>(1e9, std::vector<u128>{}));
  NodeAgent root_agent(net, root, std::move(root_devices), config);

  std::vector<std::unique_ptr<IntervalSearcher>> leaf_devices;
  leaf_devices.push_back(
      std::make_unique<PlantedSearcher>(1e9, std::vector<u128>{}));
  NodeAgent leaf_agent(net, leaf, std::move(leaf_devices), config);
  net.start(leaf, [&leaf_agent] { leaf_agent.serve(); });

  const keyspace::Interval space(u128(0), u128(4'000'000'000ull));
  const auto report =
      root_agent.run_root(space, keyspace::Interval(u128(0), u128(1u << 22)));
  net.join_all();

  // The unreachable child counts as a failure and the root covers the
  // whole space alone.
  EXPECT_GE(report.failures_detected, 1u);
  EXPECT_EQ(report.tested, space.size());
}

}  // namespace
}  // namespace gks
