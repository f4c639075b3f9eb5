#include "simgpu/device.h"

#include <cmath>

#include "support/error.h"

namespace gks::simgpu {

SimulatedGpu::SimulatedGpu(DeviceSpec spec, SimtConfig config,
                           LaunchPolicy launch)
    : spec_(std::move(spec)), config_(config), launch_(launch) {
  GKS_REQUIRE(launch_.target_kernel_s <= launch_.watchdog_limit_s,
              "target kernel time must respect the watchdog");
  GKS_REQUIRE(launch_.target_kernel_s > 0, "target kernel time must be > 0");
}

double SimulatedGpu::sustained_throughput(const KernelProfile& profile) const {
  return SimtSimulator::device_throughput(spec_, profile, config_);
}

u128 SimulatedGpu::batch_size(const KernelProfile& profile) const {
  const double keys = sustained_throughput(profile) * launch_.target_kernel_s;
  GKS_ENSURE(keys >= 1.0, "device too slow for any batch");
  return u128(static_cast<std::uint64_t>(keys));
}

double SimulatedGpu::scan_seconds(const KernelProfile& profile,
                                  u128 count) const {
  if (count == u128(0)) return 0.0;
  const double throughput = sustained_throughput(profile);
  const u128 batch = batch_size(profile);
  const double launches =
      std::ceil(count.to_double() / batch.to_double());
  return count.to_double() / throughput +
         launches * launch_.launch_overhead_s;
}

}  // namespace gks::simgpu
