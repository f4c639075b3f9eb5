#include "core/cpu_backend.h"

#include <algorithm>

#include "core/parallel_sweep.h"
#include "hash/simd/dispatch.h"

namespace gks::core {

CpuSearcher::CpuSearcher(CrackRequest request, std::size_t threads)
    : plan_(std::move(request)), pool_(threads) {}

dispatch::ScanOutcome CpuSearcher::scan(const keyspace::Interval& interval) {
  return sweep(interval);
}

dispatch::ScanOutcome CpuSearcher::sweep(
    const keyspace::Interval& interval) const {
  return parallel_scan(pool_, interval, [this](const keyspace::Interval& ids) {
    return plan_.scan(ids);
  });
}

double CpuSearcher::theoretical_throughput() const {
  if (calibrated_peak_ > 0) return calibrated_peak_;
  // The process's first fast-path scan runs the lane-width probe
  // (hash::simd::kernels_for); run it here, outside the timed region.
  if (plan_.request().algorithm != hash::Algorithm::kSha256) {
    hash::simd::kernels_for(plan_.request().algorithm);
  }
  // Calibrate with the whole pool running, not one thread multiplied by
  // size(): SMT siblings and shared caches make N threads slower than
  // N× one thread, and the efficiency denominator should reflect the
  // peak the device can actually sustain.
  const dispatch::ScanOutcome probe = sweep(keyspace::Interval(
      u128(0), std::min(plan_.request().space_size(),
                        u128(std::uint64_t{200000} * pool_.size()))));
  calibrated_peak_ =
      probe.tested.to_double() / std::max(probe.busy_virtual_s, 1e-9);
  return calibrated_peak_;
}

std::string CpuSearcher::description() const {
  return "CPU x" + std::to_string(pool_.size()) + " (" +
         hash::algorithm_name(plan_.request().algorithm) + ")";
}

}  // namespace gks::core
