#pragma once

#include <cstdint>
#include <vector>

#include "simgpu/arch.h"
#include "simgpu/kernel_profile.h"

namespace gks::simgpu {

/// Tunables of the cycle-level multiprocessor simulation.
struct SimtConfig {
  /// Resident warps per multiprocessor (occupancy). The kernels use
  /// ~1 KB of state (Section II: "requires a minimal amount of
  /// memory"), so occupancy is never register/memory limited and the
  /// cracking grids run at the architectural maximum (64 on Kepler);
  /// each of Kepler's 4 schedulers then owns 16 warps, enough to hide
  /// the ALU latency at one issue per cycle.
  unsigned resident_warps = 64;

  /// Cycles from issue to result availability for dependent ALU
  /// instructions (~9-11 on Kepler, which is the binding case: its
  /// schedulers must re-issue a warp every latency/16 cycles).
  unsigned arithmetic_latency = 10;

  /// Simulated cycles: measurement window and pipeline warm-up.
  std::uint64_t measure_cycles = 60000;
  std::uint64_t warmup_cycles = 6000;
};

/// What one simulated multiprocessor achieved.
struct SimtResult {
  double warp_instructions_per_cycle = 0;  ///< retired, per MP
  double candidates_per_cycle = 0;         ///< threads' hashes per MP cycle
  double dual_issue_fraction = 0;  ///< issues that were the second of a pair
  std::vector<double> group_utilization;  ///< busy fraction per core group
};

/// Cycle-level SIMT multiprocessor simulator (DESIGN.md §1). Models the
/// mechanisms Section V/VI reason about:
///   - warp schedulers fire once per issue slot (Table I issue time);
///   - dual-issue schedulers (cc >= 2.1) may issue a second instruction
///     from the same warp only if it is independent — i.e. only when
///     the kernel exposes ILP;
///   - each instruction seizes one core group for a full issue slot,
///     and shift/MAD-class instructions are restricted to the groups
///     that can execute them;
///   - an instruction's consumers wait out the arithmetic latency,
///     hidden by other resident warps.
///
/// The paper's headline effects emerge rather than being programmed in:
/// with ILP=1 a cc 2.1 multiprocessor can start at most 2 of its 3
/// groups per slot (≈2/3 of peak, the measured 550 Ti gap) while a
/// cc 3.0 multiprocessor's 4 schedulers just barely cover the
/// shift-bound MD5 mix (≈99% of peak, the measured GTX 660 result).
class SimtSimulator {
 public:
  explicit SimtSimulator(const MultiprocessorArch& arch,
                         SimtConfig config = {});

  /// Simulates one multiprocessor running the kernel profile steadily.
  SimtResult run(const KernelProfile& profile) const;

  /// Device-level sustained throughput (candidates per second):
  /// per-MP result scaled by clock and multiprocessor count.
  ///
  /// run() is a pure function of (compute capability, profile,
  /// config), so the per-MP result is simulated once per distinct
  /// input and kept in a process-wide, thread-safe memo; two devices
  /// of one capability share it and differ only by clock × MP count.
  /// The memo cannot change a result, only when it is computed.
  static double device_throughput(const DeviceSpec& device,
                                  const KernelProfile& profile,
                                  const SimtConfig& config = {});

  /// Distinct per-MP results simulated so far in this process.
  static std::size_t memo_entries();

 private:
  /// Core groups an op class may execute on (indices into the MP's
  /// groups). See Section V-A's findings per compute capability.
  std::vector<unsigned> allowed_groups(MachineOp op) const;

  /// Representative per-candidate op sequence: classes interleaved
  /// evenly, mirroring the hash kernels' regular structure.
  static std::vector<MachineOp> build_pattern(const MachineMix& mix);

  const MultiprocessorArch& arch_;
  SimtConfig config_;
};

}  // namespace gks::simgpu
