#pragma once

#include <string>

#include "hash/digest.h"
#include "hash/salted.h"
#include "keyspace/charset.h"
#include "keyspace/codec.h"
#include "keyspace/interval.h"
#include "keyspace/keyspace_generator.h"
#include "keyspace/space.h"

namespace gks::core {

/// The interval of identifiers i one search walks (Section III): every
/// string over `charset` with length in [min_length, max_length],
/// hashed under `algorithm` with `salt` applied. Both request types
/// are a SearchSpace plus their targets, and the sweep engines walk it
/// through SweepWalk.
struct SearchSpace {
  hash::Algorithm algorithm = hash::Algorithm::kMd5;
  keyspace::Charset charset = keyspace::Charset::alphanumeric();
  unsigned min_length = 1;
  unsigned max_length = 8;
  hash::SaltSpec salt;

  /// The enumeration every backend uses: prefix-fastest digit order
  /// (paper mapping (4)) so the optimized kernels can iterate by
  /// rewriting message word 0 only.
  keyspace::KeyspaceGenerator make_generator() const {
    return keyspace::KeyspaceGenerator(
        keyspace::KeyCodec(charset, keyspace::DigitOrder::kPrefixFastest),
        min_length, max_length);
  }

  /// Total number of candidates, S_{K0}^{K} of Equation (2).
  u128 space_size() const {
    return keyspace::space_size(charset.size(), min_length, max_length);
  }

  /// The dense identifier interval of the whole search space
  /// (generator-relative: 0 is the first string of min_length).
  keyspace::Interval space_interval() const {
    return keyspace::Interval(u128(0), space_size());
  }

  /// Identifier of a known key under make_generator()'s enumeration
  /// (generator-relative); used to plant solutions. Throws if the key
  /// lies outside the key space.
  u128 id_of(const std::string& key) const;

  /// Checks the length range, the kernels' 20-character key limit and
  /// that key plus salt fit one hash block; throws InvalidArgument
  /// otherwise.
  void validate() const;
};

}  // namespace gks::core
