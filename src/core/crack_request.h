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

/// A hash-reversal job: find the key whose (salted) digest equals the
/// target, searching all strings over `charset` with length in
/// [min_length, max_length] — the problem of Section IV.
struct CrackRequest {
  hash::Algorithm algorithm = hash::Algorithm::kMd5;
  std::string target_hex;  ///< digest to reverse, hex encoded
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

  /// Identifier of a known key under make_generator()'s enumeration
  /// (generator-relative); used to plant solutions. Throws if the key
  /// lies outside the key space.
  u128 id_of(const std::string& key) const;

  /// The dense identifier interval of the whole search space
  /// (generator-relative: 0 is the first string of min_length).
  keyspace::Interval space_interval() const {
    return keyspace::Interval(u128(0), space_size());
  }

  /// Hashes a candidate key under this request's salt scheme and
  /// compares to the target — the reference condition C(f(i)), used
  /// by the generic backends and to verify results.
  bool matches(const std::string& key) const;

  /// Validates internal consistency (digest length vs algorithm,
  /// length range, kernel limits); throws InvalidArgument otherwise.
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
