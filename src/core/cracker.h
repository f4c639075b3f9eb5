#pragma once

#include <functional>

#include "core/crack_request.h"

namespace gks::core {

/// Invoked once per claim of a search, one call at a time, with the
/// candidates tested so far and the total space size; return false to
/// cancel the search (the result then reports what was covered).
using ProgressCallback =
    std::function<bool(const u128& tested, const u128& total)>;

/// Single-machine cracking front end: the quickstart API. Runs the
/// optimized kernels on host threads; for clusters of (simulated)
/// GPUs see ClusterCracker.
class LocalCracker {
 public:
  /// `threads` = 0 uses the hardware concurrency.
  explicit LocalCracker(std::size_t threads = 0) : threads_(threads) {}

  /// Exhaustively searches the request's key space in one
  /// parallel_scan; returns on the first match (or after exhausting
  /// the space). Claims start at about 1024 ids, so a hit ends the
  /// search promptly. The optional progress callback fires after each
  /// claim, serialized across threads, and can cancel the search.
  CrackResult crack(const CrackRequest& request,
                    const ProgressCallback& progress = {}) const;

 private:
  std::size_t threads_;
};

}  // namespace gks::core
