#pragma once

#include <string>

#include "simgpu/arch.h"
#include "simgpu/kernel_profile.h"
#include "simgpu/model.h"
#include "simgpu/simt.h"
#include "support/uint128.h"

namespace gks::simgpu {

/// Kernel-launch mechanics of Section IV-A: each grid tests a bounded
/// batch so the driver's watchdog never fires ("the operating system
/// may put a limit on the maximum time that a driver ... should wait
/// for the completion of a running kernel; we can easily bypass this
/// problem by adjusting the amount of tests per call and spreading the
/// computation over multiple grids").
struct LaunchPolicy {
  double launch_overhead_s = 20e-6;  ///< host-side cost per grid launch
  double watchdog_limit_s = 2.0;     ///< maximum single-kernel runtime
  double target_kernel_s = 0.25;     ///< aim well under the watchdog
};

/// A simulated CUDA device: a DeviceSpec plus the SIMT pipeline
/// simulator, answering "how long would this device take to test N
/// candidates with this kernel". The per-multiprocessor simulation is
/// memoized process-wide (SimtSimulator::device_throughput), so every
/// instance of a device answers from one simulation.
class SimulatedGpu {
 public:
  explicit SimulatedGpu(DeviceSpec spec, SimtConfig config = {},
                        LaunchPolicy launch = {});

  const DeviceSpec& spec() const { return spec_; }
  const LaunchPolicy& launch_policy() const { return launch_; }

  /// Sustained kernel throughput from the cycle simulator (keys/s).
  double sustained_throughput(const KernelProfile& profile) const;

  /// Upper bound from the analytic model of Section VI-B (keys/s).
  double theoretical_throughput(const MachineMix& mix) const {
    return ThroughputModel::theoretical_throughput(spec_, mix);
  }

  /// Number of candidates per grid launch that keeps each kernel at
  /// the launch policy's target runtime (and under the watchdog).
  u128 batch_size(const KernelProfile& profile) const;

  /// Simulated wall-clock seconds to scan `count` candidates,
  /// including per-grid launch overhead. This is the device's
  /// K_search contribution in the Section III cost model.
  double scan_seconds(const KernelProfile& profile, u128 count) const;

 private:
  DeviceSpec spec_;
  SimtConfig config_;
  LaunchPolicy launch_;
};

}  // namespace gks::simgpu
