#include "simgpu/device.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "support/error.h"

#include "simgpu/model.h"

namespace gks::simgpu {
namespace {

KernelProfile test_profile() {
  KernelProfile p;
  p.per_candidate = PaperCounts::md5_final_cc2();
  p.ilp = 1;
  return p;
}

TEST(Device, SustainedThroughputIsCachedAndPositive) {
  SimulatedGpu gpu(device_by_name("660"));
  const double a = gpu.sustained_throughput(test_profile());
  const double b = gpu.sustained_throughput(test_profile());
  EXPECT_GT(a, 1e8);
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(Device, BatchSizeRespectsTheWatchdog) {
  LaunchPolicy policy;
  policy.target_kernel_s = 0.25;
  policy.watchdog_limit_s = 2.0;
  SimulatedGpu gpu(device_by_name("550Ti"), {}, policy);
  const auto profile = test_profile();
  const double throughput = gpu.sustained_throughput(profile);
  const double batch_time =
      gpu.batch_size(profile).to_double() / throughput;
  EXPECT_LT(batch_time, policy.watchdog_limit_s);
  EXPECT_NEAR(batch_time, policy.target_kernel_s, 0.01);
}

TEST(Device, ScanSecondsScalesLinearlyForLargeCounts) {
  SimulatedGpu gpu(device_by_name("660"));
  const auto profile = test_profile();
  const double t1 = gpu.scan_seconds(profile, u128(1) << 32);
  const double t2 = gpu.scan_seconds(profile, u128(1) << 33);
  EXPECT_NEAR(t2 / t1, 2.0, 0.01);
}

TEST(Device, SmallScansPayTheLaunchOverhead) {
  LaunchPolicy policy;
  policy.launch_overhead_s = 20e-6;
  SimulatedGpu gpu(device_by_name("660"), {}, policy);
  const auto profile = test_profile();
  // One candidate still costs a launch.
  EXPECT_GE(gpu.scan_seconds(profile, u128(1)), policy.launch_overhead_s);
  EXPECT_DOUBLE_EQ(gpu.scan_seconds(profile, u128(0)), 0.0);
}

TEST(Device, ManyLaunchesAccumulateOverhead) {
  LaunchPolicy policy;
  policy.launch_overhead_s = 1e-3;  // exaggerated for visibility
  policy.target_kernel_s = 0.01;
  SimulatedGpu gpu(device_by_name("660"), {}, policy);
  const auto profile = test_profile();
  const u128 batch = gpu.batch_size(profile);
  const double one_batch = gpu.scan_seconds(profile, batch);
  const double ten_batches =
      gpu.scan_seconds(profile, u128::checked_mul(batch, u128(10)));
  EXPECT_NEAR(ten_batches, 10 * one_batch, one_batch * 0.01);
}

TEST(Device, EfficiencyGrowsWithScanSize) {
  // The premise of the tuning step: larger intervals amortize fixed
  // costs (Section III).
  SimulatedGpu gpu(device_by_name("540M"));
  const auto profile = test_profile();
  const double peak = gpu.sustained_throughput(profile);
  const auto efficiency = [&](std::uint64_t n) {
    return (n / gpu.scan_seconds(profile, u128(n))) / peak;
  };
  EXPECT_LT(efficiency(10000), efficiency(1000000));
  EXPECT_LT(efficiency(1000000), efficiency(400000000));
  EXPECT_GT(efficiency(400000000), 0.95);
}

TEST(Device, InvalidLaunchPolicyRejected) {
  LaunchPolicy bad;
  bad.target_kernel_s = 5.0;
  bad.watchdog_limit_s = 2.0;
  EXPECT_THROW(SimulatedGpu(device_by_name("660"), {}, bad), InvalidArgument);
}

TEST(Device, TheoreticalMatchesModel) {
  SimulatedGpu gpu(device_by_name("550Ti"));
  const MachineMix mix = PaperCounts::md5_final_cc2();
  EXPECT_DOUBLE_EQ(
      gpu.theoretical_throughput(mix),
      ThroughputModel::theoretical_throughput(device_by_name("550Ti"), mix));
}

// The per-MP simulation is memoized process-wide. Each test below uses
// a SimtConfig no other test uses, so its memo entries are fresh.

/// A SimtConfig no earlier call in this process has used: each call
/// takes the next measurement window, so a test that counts new memo
/// entries still finds them fresh on every --gtest_repeat pass.
SimtConfig fresh_config() {
  static std::uint64_t next_window = 13000;
  SimtConfig config;
  config.measure_cycles = next_window++;
  return config;
}

double direct_throughput(const DeviceSpec& dev, const KernelProfile& profile,
                         const SimtConfig& config) {
  const SimtResult r = SimtSimulator(dev.arch(), config).run(profile);
  return r.candidates_per_cycle * dev.clock_hz() * dev.mp_count;
}

TEST(SimtMemo, TwoGpusOfOneDeviceReturnBitIdenticalThroughput) {
  SimtConfig config;
  config.measure_cycles = 12000;
  const DeviceSpec& dev = device_by_name("660");
  const SimulatedGpu first(dev, config);
  const SimulatedGpu second(dev, config);
  const double a = first.sustained_throughput(test_profile());
  const double b = second.sustained_throughput(test_profile());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, direct_throughput(dev, test_profile(), config));
}

TEST(SimtMemo, EachConfigAndIlpGetsItsOwnEntry) {
  const SimtConfig config = fresh_config();
  const DeviceSpec& dev = device_by_name("550Ti");
  KernelProfile ilp1 = test_profile();
  KernelProfile ilp2 = test_profile();
  ilp2.ilp = 2;

  const std::size_t before = SimtSimulator::memo_entries();
  const double base = SimtSimulator::device_throughput(dev, ilp1, config);
  EXPECT_EQ(SimtSimulator::memo_entries(), before + 1);
  EXPECT_EQ(SimtSimulator::device_throughput(dev, ilp1, config), base);
  EXPECT_EQ(SimtSimulator::memo_entries(), before + 1);

  // ILP=2 lets the cc 2.1 part dual-issue: a different result, so it
  // must not be answered from the ILP=1 entry.
  const double interleaved = SimtSimulator::device_throughput(dev, ilp2, config);
  EXPECT_EQ(SimtSimulator::memo_entries(), before + 2);
  EXPECT_GT(interleaved, base);
  EXPECT_EQ(interleaved, direct_throughput(dev, ilp2, config));

  // Too few resident warps to hide the latency: another config,
  // another entry, another result.
  SimtConfig starved = config;
  starved.resident_warps = 2;
  const double slow = SimtSimulator::device_throughput(dev, ilp1, starved);
  EXPECT_EQ(SimtSimulator::memo_entries(), before + 3);
  EXPECT_LT(slow, base);
  EXPECT_EQ(slow, direct_throughput(dev, ilp1, starved));

  // Another device of the same capability shares the per-MP entry.
  const DeviceSpec& sibling = device_by_name("540M");
  ASSERT_EQ(sibling.cc, dev.cc);
  EXPECT_EQ(SimtSimulator::device_throughput(sibling, ilp1, config),
            direct_throughput(sibling, ilp1, config));
  EXPECT_EQ(SimtSimulator::memo_entries(), before + 3);
}

TEST(SimtMemo, ConcurrentFirstCallsAgree) {
  const SimtConfig config = fresh_config();
  const DeviceSpec& dev = device_by_name("8800");
  const std::size_t before = SimtSimulator::memo_entries();
  std::vector<double> results(4, 0.0);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < results.size(); ++i) {
    threads.emplace_back([&, i] {
      results[i] = SimtSimulator::device_throughput(dev, test_profile(), config);
    });
  }
  for (auto& t : threads) t.join();
  const double expected = direct_throughput(dev, test_profile(), config);
  for (const double r : results) EXPECT_EQ(r, expected);
  EXPECT_EQ(SimtSimulator::memo_entries(), before + 1);
}

}  // namespace
}  // namespace gks::simgpu
