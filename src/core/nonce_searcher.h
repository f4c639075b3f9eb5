#pragma once

#include "core/nonce_search.h"
#include "dispatch/search.h"
#include "keyspace/interval.h"
#include "support/thread_pool.h"

namespace gks::core {

/// Adapts the SHA256d nonce search to the dispatcher's
/// IntervalSearcher interface, demonstrating the Section III claim
/// that the pattern "can be applied to other exhaustive search
/// strategies" beyond password cracking: identifiers are nonces, the
/// condition is the leading-zero-bits test, and the same tuning /
/// balancing / hierarchical dispatch machinery applies unchanged.
///
/// Unlike password cracking, the test function here returns 1 for
/// *any* satisfying nonce (there can be many), so the dispatcher's
/// merge step — collect all finds, keep searching or stop on first —
/// is exercised with a non-unique solution set.
class NonceSearcher final : public dispatch::IntervalSearcher {
 public:
  /// `threads` sizes the searcher's pool (0 = hardware).
  NonceSearcher(BlockHeader header, unsigned target_zero_bits,
                std::size_t threads = 0);

  /// Interval identifiers are nonce values; both ends must fit 32 bits.
  /// One parallel_scan collects every satisfying nonce, sorted by id.
  dispatch::ScanOutcome scan(const keyspace::Interval& interval) override;

  bool is_simulated() const override { return false; }
  double theoretical_throughput() const override;
  std::string description() const override;

 private:
  NonceTester tester_;
  ThreadPool pool_;
  mutable double calibrated_peak_ = 0;
};

}  // namespace gks::core
