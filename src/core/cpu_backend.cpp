#include "core/cpu_backend.h"

#include <algorithm>

#include "core/parallel_sweep.h"
#include "hash/simd/dispatch.h"
#include "support/stopwatch.h"

namespace gks::core {

CpuSearcher::CpuSearcher(CrackRequest request, std::size_t threads)
    : plan_(std::move(request)), pool_(threads) {}

dispatch::ScanOutcome CpuSearcher::scan(const keyspace::Interval& interval) {
  return sweep(interval);
}

dispatch::ScanOutcome CpuSearcher::sweep(
    const keyspace::Interval& interval) const {
  Stopwatch timer;
  dispatch::ScanOutcome total;
  if (interval.empty()) return total;

  // Self-scheduled claims instead of a static even split: early hash
  // exits and heterogeneous cores make chunk costs uneven
  // (parallel_sweep).
  std::vector<dispatch::ScanOutcome> partial(pool_.size());
  parallel_sweep(pool_, interval,
                 [this, &partial](std::size_t worker,
                                  const keyspace::Interval& ids) {
                   const auto out = plan_.scan(ids);
                   auto& mine = partial[worker];
                   mine.tested += out.tested;
                   for (const auto& f : out.found) mine.found.push_back(f);
                   return true;
                 });

  for (auto& o : partial) {
    total.tested += o.tested;
    for (auto& f : o.found) total.found.push_back(std::move(f));
  }
  // Claim order is nondeterministic; keep the outcome deterministic.
  std::sort(total.found.begin(), total.found.end(),
            [](const dispatch::Found& a, const dispatch::Found& b) {
              return a.id < b.id;
            });
  // Wall time, not summed thread time: the device was busy this long.
  total.busy_virtual_s = std::max(timer.seconds(), 1e-9);
  return total;
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
