#pragma once

#include <variant>

#include "core/crack_request.h"
#include "core/sweep_walk.h"
#include "dispatch/search.h"
#include "keyspace/interval.h"

namespace gks::core {

/// Single-threaded scanning engine for a crack request: the host-side
/// equivalent of the GPU kernel's thread loop. scan() walks a
/// generator-relative identifier interval in SweepWalk's tail blocks.
/// A word-0 block runs the single-target lane kernel the process
/// picked for the algorithm (hash::simd::kernels_for), which rewrites
/// message word 0 only and stops at each hit; any other block runs the
/// full-hash loop against the one target digest.
class ScanPlan {
 public:
  explicit ScanPlan(CrackRequest request);

  const CrackRequest& request() const { return request_; }

  /// Scans [interval.begin, interval.end) of generator-relative ids on
  /// the calling thread. busy_virtual_s is left 0: the callers time.
  dispatch::ScanOutcome scan(const keyspace::Interval& interval) const;

 private:
  void scan_word0(TailBlock& block, dispatch::ScanOutcome& out) const;
  void scan_full(const keyspace::Interval& ids,
                 dispatch::ScanOutcome& out) const;

  CrackRequest request_;
  SweepWalk walk_;
  std::variant<hash::Md5Digest, hash::Sha1Digest, hash::Sha256Digest> target_;
};

}  // namespace gks::core
