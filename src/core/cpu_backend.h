#pragma once

#include <memory>

#include "core/scan_engine.h"
#include "dispatch/search.h"
#include "support/thread_pool.h"

namespace gks::core {

/// Real multithreaded cracking on the host CPU — the fine-grain
/// parallelization of the pattern applied to a multicore instead of a
/// CUDA grid (the paper's future-work target, Section VII). Each scan
/// is drained by the self-scheduled host driver (parallel_sweep),
/// every worker running the same word-0 kernel loop a GPU thread
/// would — through the SIMD lane width the process picked for the
/// algorithm (hash::simd::kernels_for).
class CpuSearcher final : public dispatch::IntervalSearcher {
 public:
  /// `threads` = 0 uses the hardware concurrency.
  explicit CpuSearcher(CrackRequest request, std::size_t threads = 0);

  dispatch::ScanOutcome scan(const keyspace::Interval& interval) override;

  bool is_simulated() const override { return false; }

  /// CPUs have no published instruction-throughput bound, so the
  /// "theoretical" reference is the measured peak of a short
  /// whole-pool calibration scan (cached after the first call) —
  /// pool-parallel so SMT and shared-cache contention are priced in.
  double theoretical_throughput() const override;

  std::string description() const override;

 private:
  /// scan(), callable from the const calibration too.
  dispatch::ScanOutcome sweep(const keyspace::Interval& interval) const;

  ScanPlan plan_;
  /// mutable: sweep() is const and runs its work on the pool.
  mutable ThreadPool pool_;
  mutable double calibrated_peak_ = 0;
};

}  // namespace gks::core
