#include "simgpu/model.h"

#include <gtest/gtest.h>

#include <ostream>

#include "support/error.h"

namespace gks::simgpu {
namespace {

// Feeding the paper's own Table VI counts through the Section VI-B
// formulas must reproduce the paper's theoretical row of Table VIII.
struct TheoreticalCase {
  const char* device;
  double expected_mkeys;
  double tolerance;
};

// gtest prints the parameter into each case's name; the default printer
// would dump the name pointer's bytes, which change from run to run.
void PrintTo(const TheoreticalCase& c, std::ostream* os) { *os << c.device; }

class PaperTheoretical : public ::testing::TestWithParam<TheoreticalCase> {};

TEST_P(PaperTheoretical, MatchesTableEight) {
  const auto& p = GetParam();
  const DeviceSpec& dev = device_by_name(p.device);
  const MachineMix mix = PaperCounts::md5_final(dev.cc);
  EXPECT_NEAR(ThroughputModel::theoretical_mkeys(dev, mix), p.expected_mkeys,
              p.tolerance);
}

INSTANTIATE_TEST_SUITE_P(
    TableEight, PaperTheoretical,
    ::testing::Values(TheoreticalCase{"8600M", 83, 1.0},
                      TheoreticalCase{"8800", 568, 1.5},
                      TheoreticalCase{"540M", 359.4, 0.5},
                      TheoreticalCase{"550Ti", 962.7, 0.5},
                      TheoreticalCase{"660", 1851, 10.0}));

TEST(Model, Cc1xSerializesInstructionClasses) {
  // T = N_ADD/10 + N_LOP/8 + N_SHM/8 for the paper's cc 1.x counts
  // (197, 118, 90): 19.7 + 14.75 + 11.25 = 45.7 cycles.
  const auto& arch = arch_for(ComputeCapability::kCc1x);
  EXPECT_NEAR(ThroughputModel::cycles_per_candidate(
                  arch, PaperCounts::md5_final_cc1()),
              45.7, 0.01);
}

TEST(Model, Cc21IsTotalIssueBoundForMd5) {
  // MD5's ratio ~2.93 ≈ 3 groups: all instructions effectively run at
  // the 48/clock rate → 359/48 cycles.
  const auto& arch = arch_for(ComputeCapability::kCc21);
  EXPECT_NEAR(ThroughputModel::cycles_per_candidate(
                  arch, PaperCounts::md5_final_cc2()),
              359.0 / 48.0, 1e-9);
}

TEST(Model, Cc30IsShiftBoundForMd5) {
  // X_3.0 = X_SHM * MP / N_SHM: the dedicated shift group is the
  // bottleneck (89 shift-class ops / 32 per clock).
  const auto& arch = arch_for(ComputeCapability::kCc30);
  EXPECT_NEAR(ThroughputModel::cycles_per_candidate(
                  arch, PaperCounts::md5_final_cc2()),
              89.0 / 32.0, 1e-9);
}

TEST(Model, ShiftHeavyMixBindsTheSharedGroupOnCc21) {
  // A SHA1-like mix (ratio < 2) must be bound by the single shift
  // group, not total issue.
  MachineMix mix;
  mix[MachineOp::kIAdd] = 100;
  mix[MachineOp::kLop] = 100;
  mix[MachineOp::kShift] = 100;
  mix[MachineOp::kMadShift] = 100;
  const auto& arch = arch_for(ComputeCapability::kCc21);
  EXPECT_NEAR(ThroughputModel::cycles_per_candidate(arch, mix), 200.0 / 16.0,
              1e-9);
}

TEST(Model, ThroughputScalesWithClockAndMpCount) {
  const MachineMix mix = PaperCounts::md5_final_cc2();
  DeviceSpec a{"half", ComputeCapability::kCc30, 2, 384, 1000};
  DeviceSpec b{"full", ComputeCapability::kCc30, 4, 768, 1000};
  DeviceSpec c{"fast", ComputeCapability::kCc30, 2, 384, 2000};
  const double ta = ThroughputModel::theoretical_throughput(a, mix);
  EXPECT_DOUBLE_EQ(ThroughputModel::theoretical_throughput(b, mix), 2 * ta);
  EXPECT_DOUBLE_EQ(ThroughputModel::theoretical_throughput(c, mix), 2 * ta);
}

TEST(Model, Cc35FunnelBeatsCc30OnRotationHeavyMix) {
  MachineMix rot30;
  rot30[MachineOp::kShift] = 64;
  rot30[MachineOp::kMadShift] = 64;
  rot30[MachineOp::kIAdd] = 100;
  MachineMix rot35;
  rot35[MachineOp::kFunnel] = 64;
  rot35[MachineOp::kIAdd] = 100;
  const double c30 = ThroughputModel::cycles_per_candidate(
      arch_for(ComputeCapability::kCc30), rot30);
  const double c35 = ThroughputModel::cycles_per_candidate(
      arch_for(ComputeCapability::kCc35), rot35);
  EXPECT_NEAR(c30 / c35, 4.0, 1e-9);  // the quadrupled rotation rate
}

TEST(Model, EmptyMixRejected) {
  EXPECT_THROW(ThroughputModel::cycles_per_candidate(
                   arch_for(ComputeCapability::kCc30), MachineMix{}),
               InvalidArgument);
}

TEST(Model, PaperCountsTablesAreExact) {
  EXPECT_EQ(PaperCounts::md5_plain_cc1()[MachineOp::kIAdd], 284u);
  EXPECT_EQ(PaperCounts::md5_plain_cc2()[MachineOp::kShift], 64u);
  EXPECT_EQ(PaperCounts::md5_optimized_cc2()[MachineOp::kIAdd], 150u);
  EXPECT_EQ(PaperCounts::md5_final_cc2()[MachineOp::kPrmt], 3u);
  EXPECT_EQ(PaperCounts::md5_final_cc2().total(), 359u);
}

}  // namespace
}  // namespace gks::simgpu
