#include "core/cpu_backend.h"

#include <algorithm>
#include <atomic>

#include "hash/simd/dispatch.h"
#include "support/stopwatch.h"

namespace gks::core {
namespace {

/// Claim granularity for the self-scheduled scan: aim for ~64 claims
/// per worker so stragglers rebalance, but keep chunks large enough
/// (4096 candidates) that the atomic cursor and per-chunk setup stay
/// negligible, and bounded so no single claim monopolizes a worker.
std::uint64_t chunk_size(std::uint64_t batch, std::size_t workers) {
  const std::uint64_t target = batch / (workers * 64u) + 1;
  return std::clamp<std::uint64_t>(target, 4096, std::uint64_t{1} << 22);
}

}  // namespace

CpuSearcher::CpuSearcher(CrackRequest request, std::size_t threads)
    : plan_(std::move(request)), pool_(threads) {}

dispatch::ScanOutcome CpuSearcher::scan(const keyspace::Interval& interval) {
  Stopwatch timer;
  dispatch::ScanOutcome total;
  if (interval.empty()) return total;

  // Workers claim chunks off an atomic cursor instead of receiving a
  // static even split: early hash exits and heterogeneous cores make
  // chunk costs uneven, and self-scheduling keeps every worker busy
  // until the interval drains. Intervals beyond 2^62 are walked in
  // sequential super-batches so the cursor arithmetic stays in 64 bits.
  const u128 size = interval.size();
  std::vector<dispatch::ScanOutcome> partial(pool_.size());
  u128 done{0};
  while (done < size) {
    const u128 batch128 = std::min(size - done, u128(std::uint64_t{1} << 62));
    const std::uint64_t batch = batch128.low64();
    const u128 base = interval.begin + done;
    pool_.parallel_chunks(
        batch, chunk_size(batch, pool_.size()),
        [this, &partial, base](std::size_t worker, std::uint64_t begin,
                               std::uint64_t end) {
          const auto out = plan_.scan(
              keyspace::Interval(base + u128(begin), base + u128(end)));
          auto& mine = partial[worker];
          mine.tested += out.tested;
          for (const auto& f : out.found) mine.found.push_back(f);
        });
    done += batch128;
  }

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
  const u128 space = plan_.request().space_size();
  const u128 probe128 =
      std::min(space, u128(std::uint64_t{200000} * pool_.size()));
  const std::uint64_t probe = probe128.low64();
  std::atomic<std::uint64_t> tested{0};
  Stopwatch timer;
  pool_.parallel_chunks(
      probe, chunk_size(probe, pool_.size()),
      [this, &tested](std::size_t, std::uint64_t begin, std::uint64_t end) {
        const auto out =
            plan_.scan(keyspace::Interval(u128(begin), u128(end)));
        tested.fetch_add(out.tested.low64(), std::memory_order_relaxed);
      });
  calibrated_peak_ = static_cast<double>(tested.load()) /
                     std::max(timer.seconds(), 1e-9);
  return calibrated_peak_;
}

std::string CpuSearcher::description() const {
  return "CPU x" + std::to_string(pool_.size()) + " (" +
         hash::algorithm_name(plan_.request().algorithm) + ")";
}

}  // namespace gks::core
