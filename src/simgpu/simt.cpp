#include "simgpu/simt.h"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <tuple>

#include "support/error.h"

namespace gks::simgpu {
namespace {

constexpr unsigned kWarpSize = 32;

/// Per-warp execution state.
struct WarpState {
  std::size_t pc = 0;  ///< index into the repeating op pattern
  std::uint64_t instructions_issued = 0;
  /// Completion cycles of in-flight instructions, indexed by
  /// (instruction number % ilp): instruction i depends on i - ilp.
  std::vector<std::uint64_t> completion;
};

}  // namespace

SimtSimulator::SimtSimulator(const MultiprocessorArch& arch, SimtConfig config)
    : arch_(arch), config_(config) {
  GKS_REQUIRE(config_.resident_warps >= 1, "need at least one resident warp");
  GKS_REQUIRE(config_.measure_cycles > 0, "empty measurement window");
}

std::vector<unsigned> SimtSimulator::allowed_groups(MachineOp op) const {
  const bool shift_class =
      op == MachineOp::kShift || op == MachineOp::kMadShift ||
      op == MachineOp::kPrmt || op == MachineOp::kFunnel;
  std::vector<unsigned> groups;
  switch (arch_.cc) {
    case ComputeCapability::kCc1x:
      // One group executes everything.
      groups = {0};
      break;
    case ComputeCapability::kCc20:
    case ComputeCapability::kCc21:
      // Shift/MAD only on group 0; ADD/LOP on any group (same cores).
      // ADD/LOP prefer the other groups so the lone shift-capable one
      // stays available — the dispatch-port arbitration real hardware
      // performs.
      if (shift_class) {
        groups = {0};
      } else {
        for (unsigned g = 1; g < arch_.core_groups; ++g) groups.push_back(g);
        groups.push_back(0);
      }
      break;
    case ComputeCapability::kCc30:
      // "integer ADD and logical operations on 5 of the 6 groups ...
      // shifts and MAD on only 1 group" (Section V-A).
      if (shift_class) {
        groups = {0};
      } else {
        groups = {1, 2, 3, 4, 5};
      }
      break;
    case ComputeCapability::kCc35:
      // Doubled shift/funnel throughput: two shift-capable groups.
      if (shift_class) {
        groups = {0, 1};
      } else {
        groups = {2, 3, 4, 5};
      }
      break;
  }
  return groups;
}

std::vector<MachineOp> SimtSimulator::build_pattern(const MachineMix& mix) {
  const std::uint32_t total = mix.total();
  GKS_REQUIRE(total > 0, "empty instruction mix");

  // Largest-remainder interleave: at each position emit the class
  // whose accumulated deficit is largest, yielding the even spread of
  // shift/rotate work through the hash rounds.
  std::vector<MachineOp> pattern;
  pattern.reserve(total);
  std::array<double, kMachineOpCount> credit{};
  for (std::uint32_t i = 0; i < total; ++i) {
    std::size_t best = kMachineOpCount;
    double best_credit = 0;
    for (std::size_t c = 0; c < kMachineOpCount; ++c) {
      credit[c] += static_cast<double>(mix.counts[c]) / total;
      if (credit[c] > best_credit) {
        best_credit = credit[c];
        best = c;
      }
    }
    GKS_ENSURE(best < kMachineOpCount, "pattern construction stalled");
    credit[best] -= 1.0;
    pattern.push_back(static_cast<MachineOp>(best));
  }
  return pattern;
}

SimtResult SimtSimulator::run(const KernelProfile& profile) const {
  const MachineMix mix = profile.effective_mix();
  const std::vector<MachineOp> pattern = build_pattern(mix);
  const unsigned ilp = std::max(1u, profile.ilp);
  const unsigned slot = arch_.issue_cycles;
  const unsigned groups = arch_.core_groups;

  // Precompute group permissions per op class.
  std::array<std::vector<unsigned>, kMachineOpCount> allowed;
  for (std::size_t c = 0; c < kMachineOpCount; ++c) {
    allowed[c] = allowed_groups(static_cast<MachineOp>(c));
  }

  std::vector<WarpState> warps(config_.resident_warps);
  for (std::size_t i = 0; i < warps.size(); ++i) {
    warps[i].completion.assign(ilp, 0);
    // Stagger warps through the kernel body: resident warps launched
    // back-to-back never run in lockstep, and a lockstep start would
    // make every warp contend for the same core group each slot.
    warps[i].pc = (i * pattern.size()) / warps.size();
    warps[i].instructions_issued = warps[i].pc;
  }

  std::vector<std::uint64_t> group_busy_until(groups, 0);
  std::vector<std::uint64_t> group_busy_cycles(groups, 0);

  std::uint64_t retired = 0;
  std::uint64_t issued_total = 0;
  std::uint64_t dual_issued = 0;
  std::uint64_t retired_at_warmup = 0;

  const std::uint64_t end_cycle =
      config_.warmup_cycles + config_.measure_cycles;

  // Round-robin positions, one per scheduler.
  std::vector<std::size_t> rr(arch_.warp_schedulers, 0);

  const auto try_issue = [&](WarpState& w, std::uint64_t cycle) -> bool {
    const MachineOp op = pattern[w.pc % pattern.size()];
    // Dependency: this instruction consumes the result produced `ilp`
    // instructions ago in its stream.
    if (w.completion[w.instructions_issued % ilp] > cycle) return false;
    for (unsigned g : allowed[static_cast<std::size_t>(op)]) {
      if (group_busy_until[g] <= cycle) {
        group_busy_until[g] = cycle + slot;
        group_busy_cycles[g] += slot;
        w.completion[w.instructions_issued % ilp] =
            cycle + config_.arithmetic_latency;
        w.instructions_issued += 1;
        w.pc += 1;
        retired += 1;
        return true;
      }
    }
    return false;
  };

  for (std::uint64_t cycle = 0; cycle < end_cycle; cycle += slot) {
    if (cycle < config_.warmup_cycles &&
        cycle + slot >= config_.warmup_cycles) {
      retired_at_warmup = retired;
    }
    // Rotate scheduler priority each slot: hardware arbitrates fairly,
    // and a fixed order would let scheduler 0 monopolize contended
    // groups.
    const unsigned first_scheduler =
        static_cast<unsigned>((cycle / slot) % arch_.warp_schedulers);
    for (unsigned si = 0; si < arch_.warp_schedulers; ++si) {
      const unsigned s = (first_scheduler + si) % arch_.warp_schedulers;
      // Each scheduler owns the warps with index ≡ s (mod schedulers).
      const std::size_t owned =
          (warps.size() + arch_.warp_schedulers - 1 - s) /
          arch_.warp_schedulers;
      if (owned == 0) continue;
      // Two probe passes: first offer the scarce shift/MAD pipeline to
      // a warp that can use it (schedulers keep the bottleneck port
      // fed), then issue anything that fits.
      bool issued = false;
      for (int pass = 0; pass < 2 && !issued; ++pass) {
        for (std::size_t probe = 0; probe < owned && !issued; ++probe) {
          const std::size_t wi =
              s + ((rr[s] + probe) % owned) * arch_.warp_schedulers;
          if (wi >= warps.size()) continue;
          WarpState& w = warps[wi];
          if (pass == 0) {
            const MachineOp op = pattern[w.pc % pattern.size()];
            const bool shift_class = op == MachineOp::kShift ||
                                     op == MachineOp::kMadShift ||
                                     op == MachineOp::kPrmt ||
                                     op == MachineOp::kFunnel;
            if (!shift_class) continue;
          }
          if (try_issue(w, cycle)) {
            issued = true;
            issued_total += 1;
            rr[s] = (rr[s] + probe + 1) % owned;
            // Dual issue: a second, *independent* instruction from the
            // same warp. With ilp == 1 the next instruction depends on
            // the one just issued, so this never fires — the profiler
            // observation ("dispatched in a dual-issue fashion is very
            // low") becomes structural.
            if (arch_.dual_issue && try_issue(w, cycle)) {
              issued_total += 1;
              dual_issued += 1;
            }
          }
        }
      }
    }
  }

  const std::uint64_t measured = retired - retired_at_warmup;
  SimtResult result;
  result.warp_instructions_per_cycle =
      static_cast<double>(measured) / config_.measure_cycles;
  result.candidates_per_cycle = result.warp_instructions_per_cycle *
                                kWarpSize / mix.total();
  result.dual_issue_fraction =
      issued_total == 0 ? 0.0
                        : static_cast<double>(dual_issued) / issued_total;
  result.group_utilization.resize(groups);
  for (unsigned g = 0; g < groups; ++g) {
    result.group_utilization[g] =
        static_cast<double>(group_busy_cycles[g]) / end_cycle;
  }
  return result;
}

namespace {

/// Every input of SimtSimulator::run for a canonical architecture.
/// The overhead fraction is keyed by its bits, so no two doubles that
/// could simulate differently share an entry.
using MemoKey =
    std::tuple<ComputeCapability, std::array<std::uint32_t, kMachineOpCount>,
               unsigned, std::uint64_t, unsigned, unsigned, std::uint64_t,
               std::uint64_t>;

MemoKey memo_key(ComputeCapability cc, const KernelProfile& profile,
                 const SimtConfig& config) {
  return {cc,
          profile.per_candidate.counts,
          profile.ilp,
          std::bit_cast<std::uint64_t>(profile.overhead_fraction),
          config.resident_warps,
          config.arithmetic_latency,
          config.measure_cycles,
          config.warmup_cycles};
}

/// One memo slot; the first caller simulates, concurrent callers of
/// the same key wait for it, callers of other keys run in parallel.
struct MemoEntry {
  std::once_flag once;
  SimtResult result;
};

class SimtMemo {
 public:
  static SimtMemo& instance() {
    static SimtMemo memo;
    return memo;
  }

  SimtResult get(ComputeCapability cc, const KernelProfile& profile,
                 const SimtConfig& config) {
    std::shared_ptr<MemoEntry> entry;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto& slot = entries_[memo_key(cc, profile, config)];
      if (!slot) slot = std::make_shared<MemoEntry>();
      entry = slot;
    }
    std::call_once(entry->once, [&] {
      entry->result = SimtSimulator(arch_for(cc), config).run(profile);
    });
    return entry->result;
  }

  std::size_t size() {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
  }

 private:
  std::mutex mu_;
  std::map<MemoKey, std::shared_ptr<MemoEntry>> entries_;
};

}  // namespace

double SimtSimulator::device_throughput(const DeviceSpec& device,
                                        const KernelProfile& profile,
                                        const SimtConfig& config) {
  const SimtResult r = SimtMemo::instance().get(device.cc, profile, config);
  return r.candidates_per_cycle * device.clock_hz() * device.mp_count;
}

std::size_t SimtSimulator::memo_entries() {
  return SimtMemo::instance().size();
}

}  // namespace gks::simgpu
