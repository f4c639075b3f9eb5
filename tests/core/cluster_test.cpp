#include "core/cluster.h"

#include <gtest/gtest.h>

#include "support/error.h"

#include "hash/md5.h"

namespace gks::core {
namespace {

CrackRequest paper_request(const std::string& planted) {
  CrackRequest r;
  r.algorithm = hash::Algorithm::kMd5;
  r.target_hex = hash::Md5::digest(planted).to_hex();
  r.charset = keyspace::Charset::alphanumeric();
  r.min_length = 1;
  r.max_length = 8;
  return r;
}

ClusterOptions model_options(const std::string& planted) {
  ClusterOptions opts;
  opts.time_scale = 5e-4;
  opts.gpu_mode = SimGpuMode::kModel;
  opts.planted_key = planted;
  opts.agent.round_virtual_target_s = 20.0;
  return opts;
}

TEST(Cluster, PaperTopologyHasTheFourNodesAndFiveGpus) {
  const ClusterNode a = ClusterCracker::paper_topology();
  EXPECT_EQ(a.name, "node-A");
  ASSERT_EQ(a.devices.size(), 1u);
  EXPECT_EQ(a.devices[0].gpu_short_name, "540M");
  ASSERT_EQ(a.children.size(), 2u);
  const ClusterNode& b = a.children[0];
  EXPECT_EQ(b.devices.size(), 2u);
  const ClusterNode& c = a.children[1];
  ASSERT_EQ(c.children.size(), 1u);
  EXPECT_EQ(c.children[0].devices[0].gpu_short_name, "8800");
}

TEST(Cluster, FindsThePlantedKeyOnThePaperNetwork) {
  const std::string planted = "k3yXy2a";
  ClusterCracker cluster(ClusterCracker::paper_topology(),
                         model_options(planted));
  const auto report = cluster.crack(paper_request(planted));
  ASSERT_FALSE(report.found.empty());
  EXPECT_EQ(report.found[0].value, planted);
  EXPECT_EQ(report.failures_detected, 0u);
}

TEST(Cluster, NetworkThroughputIsNearTheSumOfDevices) {
  // Table IX's headline: "an actual overall throughput that is roughly
  // equal to the sum of the throughputs of the single devices".
  const std::string planted = "zzZ99xQ7";  // deep in the space
  ClusterCracker cluster(ClusterCracker::paper_topology(),
                         model_options(planted));
  const auto report = cluster.crack(paper_request(planted));

  double device_sum = 0;
  for (const auto& m : report.members) device_sum += m.throughput;
  EXPECT_GT(report.throughput, 0.75 * device_sum);
  EXPECT_GT(report.efficiency, 0.7);
  EXPECT_LE(report.efficiency, 1.05);
}

TEST(Cluster, PaperCrackIsBitIdenticalAcrossRuns) {
  // Every device is model-timed, so the run keeps event-driven virtual
  // time: host load and thread scheduling cannot reach the report.
  const std::string planted = "k3yXy2a";
  const auto run = [&] {
    ClusterCracker cluster(ClusterCracker::paper_topology(),
                           model_options(planted));
    return cluster.crack(paper_request(planted));
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.elapsed_virtual_s, second.elapsed_virtual_s);
  EXPECT_EQ(first.efficiency, second.efficiency);
  EXPECT_EQ(first.rounds, second.rounds);
  ASSERT_EQ(first.members.size(), second.members.size());
  for (std::size_t i = 0; i < first.members.size(); ++i) {
    EXPECT_EQ(first.members[i].tested, second.members[i].tested);
    EXPECT_EQ(first.members[i].busy_virtual_s,
              second.members[i].busy_virtual_s);
  }
}

TEST(Cluster, CpuOnlyClusterDoesRealWork) {
  ClusterNode root{"cpu-root", {ClusterDevice::cpu(2)}, {}, {}};
  ClusterNode leaf{"cpu-leaf", {ClusterDevice::cpu(2)}, {}, {}};
  root.children.push_back(leaf);

  ClusterOptions opts;
  opts.time_scale = 1.0;  // CPU devices live in real time
  opts.gpu_mode = SimGpuMode::kExecute;
  opts.tune_scratch = u128(1u << 16);
  opts.agent.round_virtual_target_s = 0.05;
  opts.agent.tune.start_batch = u128(4096);

  CrackRequest req;
  req.algorithm = hash::Algorithm::kMd5;
  req.target_hex = hash::Md5::digest("ffee").to_hex();
  req.charset = keyspace::Charset("abcdef");
  req.min_length = 1;
  req.max_length = 5;

  ClusterCracker cluster(root, opts);
  const auto report = cluster.crack(req);
  ASSERT_FALSE(report.found.empty());
  EXPECT_EQ(report.found[0].value, "ffee");
}

TEST(Cluster, ModelModeRequiresAPlantedKey) {
  ClusterOptions opts;
  opts.gpu_mode = SimGpuMode::kModel;
  ClusterCracker cluster(ClusterCracker::paper_topology(), opts);
  EXPECT_THROW(cluster.crack(paper_request("abc")), InvalidArgument);
}

TEST(Cluster, PlantedKeyMustHashToTheTarget) {
  auto opts = model_options("wrongKey");
  ClusterCracker cluster(ClusterCracker::paper_topology(), opts);
  EXPECT_THROW(cluster.crack(paper_request("realKey")), InvalidArgument);
}

TEST(Cluster, WorkSplitsFollowDeviceSpeeds) {
  const std::string planted = "zzZ99xQ7";
  ClusterCracker cluster(ClusterCracker::paper_topology(),
                         model_options(planted));
  const auto report = cluster.crack(paper_request(planted));
  ASSERT_EQ(report.members.size(), 3u);  // local 540M, node-B, node-C
  // node-B (660 + 550 Ti) is the fastest subtree and must have tested
  // the most; the local 540M the least.
  EXPECT_GT(report.members[1].tested, report.members[2].tested);
  EXPECT_GT(report.members[2].tested, report.members[0].tested);
}

}  // namespace
}  // namespace gks::core
