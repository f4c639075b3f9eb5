#pragma once

#include <string>
#include <vector>

#include "hash/digest.h"
#include "hash/salted.h"
#include "keyspace/charset.h"
#include "support/uint128.h"

namespace gks::core {

/// A batch hash-reversal job: many digests, one key space, one sweep.
/// This is the efficient form of the auditing session (Section I) —
/// with the multi-target contexts' shared TargetIndex the per-candidate
/// cost is one hash computation plus one O(1) filter probe regardless
/// of target count, so auditing a whole credential store sweeps at
/// essentially the single-target rate (see docs/multi_target.md).
///
/// All targets must share the algorithm, charset, length range and
/// salt scheme; differently-salted credentials need separate sweeps
/// (their message tails differ — that is exactly how salting defeats
/// batch attacks on mismatched salts).
struct MultiCrackRequest {
  hash::Algorithm algorithm = hash::Algorithm::kMd5;
  std::vector<std::string> target_hexes;
  keyspace::Charset charset = keyspace::Charset::alphanumeric();
  unsigned min_length = 1;
  unsigned max_length = 8;
  hash::SaltSpec salt;

  void validate() const;
};

/// Per-target verdict of a batch sweep.
struct MultiTargetVerdict {
  std::string digest_hex;
  bool found = false;
  std::string key;
};

/// Outcome of the sweep.
struct MultiCrackResult {
  std::vector<MultiTargetVerdict> targets;  ///< in request order
  std::size_t cracked = 0;
  u128 tested{0};
  /// Identifier intervals dispatched to workers over the sweep — the
  /// dispatch-granularity observable tools report in --json mode.
  std::uint64_t intervals = 0;
  double elapsed_s = 0;
  /// TargetIndex gate traffic over the sweep: candidates that passed
  /// the front gate, and the subset that survived the 32-bit word
  /// match or slot search yet failed full-digest confirmation. The
  /// ratio against `tested` is the measured gate false-positive rate.
  std::uint64_t filter_gate_hits = 0;
  std::uint64_t filter_false_positives = 0;
};

/// Sweeps the key space once, testing every candidate against all
/// still-outstanding targets; stops early once every digest is
/// recovered. `threads` = 0 uses the hardware concurrency.
MultiCrackResult multi_crack(const MultiCrackRequest& request,
                             std::size_t threads = 0);

/// The digest of `key` under the request's salt scheme, canonical
/// lower-case hex — what a claimed preimage must hash to. This is the
/// verification primitive for untrusted `found` reports: a coordinator
/// recomputes the digest before believing a remote worker
/// (docs/distributed.md, "Failure model").
std::string salted_digest_hex(hash::Algorithm algorithm,
                              const hash::SaltSpec& salt,
                              const std::string& key);

}  // namespace gks::core
