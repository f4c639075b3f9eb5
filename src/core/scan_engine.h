#pragma once

#include <optional>

#include "core/crack_request.h"
#include "dispatch/search.h"
#include "hash/md5_crack.h"
#include "hash/sha1_crack.h"
#include "keyspace/interval.h"

namespace gks::core {

/// Single-threaded scanning engine for a crack request: the host-side
/// equivalent of the GPU kernel's thread loop. Precomputes the codec
/// and the parsed target; scan() walks a generator-relative identifier
/// interval.
///
/// Fast path (MD5/SHA1, no prefix salt, key length >= 4 or unsalted):
/// per block of N^min(4,L) consecutive identifiers — which share their
/// tail characters under the prefix-fastest mapping (4) — one crack
/// context is built and candidates are tested by rewriting message
/// word 0 only, exactly like a kernel thread applying the `next`
/// operator (Section IV-A), on the lane width the process picked for
/// the algorithm (hash::simd::kernels_for). Everything else falls back
/// to the generic path: materialize each candidate and hash it fully.
class ScanPlan {
 public:
  explicit ScanPlan(CrackRequest request);

  const CrackRequest& request() const { return request_; }

  /// Scans [interval.begin, interval.end) of generator-relative ids on
  /// the calling thread. busy_virtual_s is the measured wall time.
  dispatch::ScanOutcome scan(const keyspace::Interval& interval) const;

  /// Identifier of a known plaintext (generator-relative); used by
  /// benches to plant solutions. Throws if outside the key space.
  u128 id_of(const std::string& key) const;

 private:
  bool fast_path_applicable(std::size_t key_len) const;

  dispatch::ScanOutcome scan_fast_chunk(u128 begin_id, u128 count,
                                        const std::string& first_key) const;

  CrackRequest request_;
  keyspace::KeyCodec codec_;
  u128 offset_;      ///< global codec id of generator-relative id 0
  u128 space_size_;  ///< total candidates
  std::optional<hash::Md5Digest> md5_target_;
  std::optional<hash::Sha1Digest> sha1_target_;
};

}  // namespace gks::core
