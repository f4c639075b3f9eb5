#include "core/parallel_sweep.h"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "support/stopwatch.h"

namespace gks::core {

void parallel_sweep(
    ThreadPool& pool, const keyspace::Interval& interval,
    const std::function<bool(std::size_t, const keyspace::Interval&)>& fn) {
  constexpr std::uint64_t kBatch = std::uint64_t{1} << 62;
  constexpr std::uint64_t kFirst = 1024;  // ids in the smallest claim
  const std::size_t workers = pool.size();
  const std::uint64_t ramp = 8 * workers;  // claims per claim size
  std::atomic<bool> stop{false};
  for (u128 base = interval.begin;
       base < interval.end && !stop.load(std::memory_order_relaxed);) {
    // 2^62 divides 2^64, so the low word gives the offset past the last
    // multiple of 2^62.
    const u128 seam = base + u128(kBatch - (base.low64() & (kBatch - 1)));
    const std::uint64_t batch = (std::min(seam, interval.end) - base).low64();
    const std::uint64_t chunk = std::clamp<std::uint64_t>(
        batch / (workers * 64) + 1, 4096, std::uint64_t{1} << 22);
    // Claim k starts at offset(k): kFirst ids for the first `ramp`
    // claims, doubling every `ramp` claims up to `chunk`. So a search
    // that stops at an early hit sees it after a few thousand ids, and
    // until then the workers stay within about an eighth of one
    // another's offset.
    const auto offset = [chunk, ramp](std::uint64_t k) {
      std::uint64_t begin = 0;
      std::uint64_t size = kFirst;
      for (; size < chunk && k >= ramp; size *= 2, k -= ramp) {
        begin += ramp * size;
      }
      return begin + k * std::min(size, chunk);
    };
    // The pool's cursor hands out claim numbers. Every claim but the
    // last holds at least kFirst ids, so batch / kFirst + 1 numbers are
    // enough, and the first number past the batch ends the claiming.
    pool.parallel_chunks(
        batch / kFirst + 1, 1,
        [&fn, &stop, &offset, base, batch](std::size_t worker,
                                           std::uint64_t k, std::uint64_t) {
          const std::uint64_t begin = offset(k);
          if (begin >= batch) return false;
          const std::uint64_t end = std::min(offset(k + 1), batch);
          if (fn(worker, keyspace::Interval(base + u128(begin),
                                            base + u128(end)))) {
            return true;
          }
          stop.store(true, std::memory_order_relaxed);
          return false;
        });
    base += u128(batch);
  }
}

dispatch::ScanOutcome parallel_scan(
    ThreadPool& pool, const keyspace::Interval& interval,
    const std::function<dispatch::ScanOutcome(const keyspace::Interval&)>&
        scan,
    const std::function<bool(const dispatch::ScanOutcome&)>& more) {
  Stopwatch timer;
  dispatch::ScanOutcome total;
  if (interval.empty()) return total;
  std::mutex mu;
  bool go = true;  // guarded by mu; false once `more` said so
  parallel_sweep(pool, interval,
                 [&](std::size_t, const keyspace::Interval& ids) {
                   dispatch::ScanOutcome out = scan(ids);
                   std::lock_guard lock(mu);
                   total.tested += out.tested;
                   for (auto& f : out.found) total.found.push_back(std::move(f));
                   go = go && (!more || more(total));
                   return go;
                 });
  std::ranges::sort(total.found, {}, &dispatch::Found::id);
  // Wall time, not summed thread time: the device was busy this long.
  total.busy_virtual_s = std::max(timer.seconds(), 1e-9);
  return total;
}

}  // namespace gks::core
