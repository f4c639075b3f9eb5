#pragma once

#include <string>

#include "core/search_space.h"

namespace gks::core {

/// A hash-reversal job: find the key in the search space whose (salted)
/// digest equals the target — the problem of Section IV.
struct CrackRequest : SearchSpace {
  std::string target_hex;  ///< digest to reverse, hex encoded

  /// Hashes a candidate key under this request's salt scheme and
  /// compares to the target — the reference condition C(f(i)), used
  /// by the generic backends and to verify results.
  bool matches(const std::string& key) const;

  /// SearchSpace::validate plus the digest length against the
  /// algorithm; throws InvalidArgument otherwise.
  void validate() const;
};

/// A confirmed crack: the identifier, the key, and the elapsed cost.
struct CrackResult {
  bool found = false;
  std::string key;
  u128 tested{0};
  double elapsed_s = 0;
  double throughput = 0;  ///< keys per second over the whole run
};

}  // namespace gks::core
