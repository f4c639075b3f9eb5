#include "core/nonce_searcher.h"

#include <algorithm>

#include "core/parallel_sweep.h"
#include "support/error.h"
#include "support/stopwatch.h"

namespace gks::core {

NonceSearcher::NonceSearcher(BlockHeader header, unsigned target_zero_bits,
                             std::size_t threads)
    : tester_(header, target_zero_bits), pool_(threads) {}

dispatch::ScanOutcome NonceSearcher::scan(
    const keyspace::Interval& interval) {
  GKS_REQUIRE(interval.end <= u128(1ull << 32),
              "nonce identifiers are 32-bit values");
  // Every hit, not just the first: the dispatcher decides what suffices.
  return parallel_scan(pool_, interval, [this](const keyspace::Interval& ids) {
    dispatch::ScanOutcome out;
    std::uint64_t tested = 0;
    std::uint64_t begin = ids.begin.low64();
    while (const auto nonce =
               tester_.first_hit(begin, ids.end.low64(), nullptr, tested)) {
      out.found.push_back({u128(*nonce), std::to_string(*nonce)});
      begin = *nonce + 1;
    }
    out.tested = u128(tested);
    return out;
  });
}

double NonceSearcher::theoretical_throughput() const {
  if (calibrated_peak_ > 0) return calibrated_peak_;
  Stopwatch timer;
  // Impossible target: pure scan speed over a small range.
  const std::uint64_t probe = 1u << 15;
  (void)mine_nonce(tester_.header(), 256, 0, probe, pool_.size());
  calibrated_peak_ = probe / std::max(timer.seconds(), 1e-9);
  return calibrated_peak_;
}

std::string NonceSearcher::description() const {
  return "SHA256d nonce search (>= " +
         std::to_string(tester_.target_zero_bits()) + " zero bits)";
}

}  // namespace gks::core
