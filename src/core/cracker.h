#pragma once

#include <functional>

#include "core/cpu_backend.h"
#include "core/crack_request.h"

namespace gks::core {

/// Invoked between work slices of a long search with the candidates
/// tested so far and the total space size; return false to cancel the
/// search (the result then reports what was covered).
using ProgressCallback =
    std::function<bool(const u128& tested, const u128& total)>;

/// Single-machine cracking front end: the quickstart API. Runs the
/// optimized kernels on host threads; for clusters of (simulated)
/// GPUs see ClusterCracker.
class LocalCracker {
 public:
  /// `threads` = 0 uses the hardware concurrency.
  explicit LocalCracker(std::size_t threads = 0) : threads_(threads) {}

  /// Exhaustively searches the request's key space; returns on the
  /// first match (or after exhausting the space). The search proceeds
  /// in bounded slices so a hit terminates promptly, mirroring the
  /// per-grid batching of Section IV-A. The optional progress callback
  /// fires between slices and can cancel the search.
  CrackResult crack(const CrackRequest& request,
                    const ProgressCallback& progress = {}) const;

 private:
  std::size_t threads_;
};

}  // namespace gks::core
