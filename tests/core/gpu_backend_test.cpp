#include "core/gpu_backend.h"

#include <gtest/gtest.h>

#include "core/cpu_backend.h"
#include "hash/md5.h"
#include "hash/sha1.h"

namespace gks::core {
namespace {

CrackRequest request_md5(const std::string& plaintext) {
  CrackRequest r;
  r.algorithm = hash::Algorithm::kMd5;
  r.target_hex = hash::Md5::digest(plaintext).to_hex();
  r.charset = keyspace::Charset("abcd");
  r.min_length = 1;
  r.max_length = 5;
  return r;
}

SimGpuSearcher make_searcher(const CrackRequest& req, SimGpuMode mode,
                             std::vector<u128> planted = {}) {
  const auto& spec = simgpu::device_by_name("660");
  return SimGpuSearcher(req, simgpu::SimulatedGpu(spec),
                        our_kernel_profile(req.algorithm, spec.cc), mode,
                        std::move(planted));
}

TEST(GpuBackend, ExecuteModeReallyFindsTheKey) {
  const auto req = request_md5("dcba");
  auto searcher = make_searcher(req, SimGpuMode::kExecute);
  const auto out = searcher.scan(req.space_interval());
  ASSERT_EQ(out.found.size(), 1u);
  EXPECT_EQ(out.found[0].value, "dcba");
}

TEST(GpuBackend, ModelModeFindsThePlantedId) {
  const auto req = request_md5("dcba");
  const u128 id = req.id_of("dcba");
  auto searcher = make_searcher(req, SimGpuMode::kModel, {id});
  const auto out = searcher.scan(req.space_interval());
  ASSERT_EQ(out.found.size(), 1u);
  EXPECT_EQ(out.found[0].id, id);
  EXPECT_EQ(out.found[0].value, "dcba");
}

TEST(GpuBackend, ModelAndExecuteModesAgreeOnFinds) {
  // The duality check of DESIGN.md: same interval, same conclusion.
  const auto req = request_md5("ccc");
  const u128 id = req.id_of("ccc");

  auto execute = make_searcher(req, SimGpuMode::kExecute);
  auto model = make_searcher(req, SimGpuMode::kModel, {id});

  const keyspace::Interval hit(id - u128(5), id + u128(5));
  const keyspace::Interval miss(id + u128(5), id + u128(100));
  EXPECT_EQ(execute.scan(hit).found.size(), model.scan(hit).found.size());
  EXPECT_TRUE(execute.scan(miss).found.empty());
  EXPECT_TRUE(model.scan(miss).found.empty());
}

TEST(GpuBackend, TimingComesFromTheModelNotTheHost) {
  const auto req = request_md5("dcba");
  auto model = make_searcher(req, SimGpuMode::kModel, {});
  // A billion-key interval "runs" instantly on the host but must be
  // reported as a substantial simulated duration.
  const keyspace::Interval space = req.space_interval();
  const auto out = model.scan(space);
  const double expected =
      space.size().to_double() / model.peak_throughput_hint();
  EXPECT_NEAR(out.busy_virtual_s, expected, expected * 0.5 + 1e-4);
  EXPECT_TRUE(model.is_simulated());
}

TEST(GpuBackend, TheoreticalAboveSustained) {
  const auto req = request_md5("dcba");
  auto searcher = make_searcher(req, SimGpuMode::kModel);
  EXPECT_GE(searcher.theoretical_throughput(),
            searcher.peak_throughput_hint() * 0.95);
}

TEST(GpuBackend, DescriptionNamesDeviceAndAlgorithm) {
  const auto req = request_md5("dcba");
  auto searcher = make_searcher(req, SimGpuMode::kModel);
  EXPECT_NE(searcher.description().find("660"), std::string::npos);
  EXPECT_NE(searcher.description().find("MD5"), std::string::npos);
}

TEST(OurKernelProfile, FermiGetsIlpTwoOthersOne) {
  using simgpu::ComputeCapability;
  EXPECT_EQ(our_kernel_profile(hash::Algorithm::kMd5,
                               ComputeCapability::kCc21)
                .ilp,
            2u);
  EXPECT_EQ(our_kernel_profile(hash::Algorithm::kMd5,
                               ComputeCapability::kCc30)
                .ilp,
            1u);
  EXPECT_EQ(our_kernel_profile(hash::Algorithm::kMd5,
                               ComputeCapability::kCc1x)
                .ilp,
            1u);
}

TEST(OurKernelProfile, BytePermOnlyWhereItExistsAndPays) {
  using simgpu::ComputeCapability;
  using simgpu::MachineOp;
  EXPECT_GT(our_kernel_profile(hash::Algorithm::kMd5,
                               ComputeCapability::kCc30)
                .per_candidate[MachineOp::kPrmt],
            0u);
  EXPECT_EQ(our_kernel_profile(hash::Algorithm::kMd5,
                               ComputeCapability::kCc21)
                .per_candidate[MachineOp::kPrmt],
            0u);
}

TEST(OurKernelProfile, Sha1CostsMoreThanMd5) {
  using simgpu::ComputeCapability;
  const auto md5 =
      our_kernel_profile(hash::Algorithm::kMd5, ComputeCapability::kCc30);
  const auto sha1 =
      our_kernel_profile(hash::Algorithm::kSha1, ComputeCapability::kCc30);
  EXPECT_GT(sha1.per_candidate.total(), 2 * md5.per_candidate.total());
}

}  // namespace
}  // namespace gks::core
