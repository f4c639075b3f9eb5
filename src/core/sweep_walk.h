#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "core/search_space.h"
#include "hash/digest.h"
#include "hash/md5.h"
#include "hash/md5_crack.h"
#include "hash/salted.h"
#include "hash/sha1.h"
#include "hash/sha256.h"
#include "keyspace/interval.h"
#include "keyspace/keyspace_generator.h"
#include "support/error.h"

namespace gks::core {

/// Where a word-0 scan of one tail block starts: what a kernel thread
/// holds fixed while it steps message word 0 (Section IV-A).
struct Word0Start {
  std::string tail;              ///< key characters 4.., then any suffix salt
  std::size_t total_length;      ///< key plus salt bytes
  hash::PrefixWord0Iterator it;  ///< seeked to the block's first key
};

/// A run of ids whose keys share their length and every character
/// past the fourth: N^min(4, L) ids under the prefix-fastest mapping
/// (4), clipped to the walked interval.
struct TailBlock {
  keyspace::Interval ids;
  unsigned key_length;
  /// Set when the block takes the word-0 fast path: MD5 or SHA1, no
  /// prefix salt, and a suffix salt only when L >= 4 (a shorter key's
  /// salt bytes spill into word 0, which the iterator does not model).
  /// Other blocks run hash_candidates.
  std::optional<Word0Start> word0;
};

/// The candidate walk the sweep engines share: one search space's
/// enumeration (prefix-fastest order) split into tail blocks, each set
/// up for the word-0 kernels or left to the full-hash loop. Each engine
/// keeps only its per-block kernel call.
class SweepWalk {
 public:
  explicit SweepWalk(const SearchSpace& space);

  /// The enumeration; ids are generator-relative (0 is the first key
  /// of min_length).
  const keyspace::KeyspaceGenerator& generator() const { return generator_; }

  /// Calls fn(TailBlock&) for each tail block of `interval`, in id
  /// order, until fn returns false.
  template <class Fn>
  void for_each_block(const keyspace::Interval& interval, Fn&& fn) const {
    for (u128 id = interval.begin; id < interval.end;) {
      TailBlock block = block_at(id, interval.end);
      if (!fn(block)) return;
      id = block.ids.end;
    }
  }

 private:
  /// The tail block holding `id`, from `id` to its end or `end`.
  TailBlock block_at(u128 id, u128 end) const;

  hash::Algorithm algorithm_;
  keyspace::KeyspaceGenerator generator_;
  hash::SaltSpec salt_;
};

/// The digest type a hasher (hash::Md5, hash::Sha1, hash::Sha256)
/// returns.
template <class Hasher>
using DigestOf = decltype(Hasher::digest(std::string_view()));

/// fn(std::type_identity<Hasher>()) with the algorithm's hasher.
template <class Fn>
decltype(auto) visit_hasher(hash::Algorithm algorithm, Fn&& fn) {
  switch (algorithm) {
    case hash::Algorithm::kMd5: return fn(std::type_identity<hash::Md5>());
    case hash::Algorithm::kSha1: return fn(std::type_identity<hash::Sha1>());
    case hash::Algorithm::kSha256:
      return fn(std::type_identity<hash::Sha256>());
  }
  throw InvalidArgument("unknown hash algorithm");
}

/// The full-hash candidate loop, the generic C(f(i)) of Section III-A:
/// generates candidate ids.begin, steps with the generator's `next`,
/// salts each candidate into one reused buffer, hashes it and calls
/// on_digest(id, key, digest). Taking the concrete generator type lets
/// a final generator's calls inline.
template <class Hasher, class Gen, class OnDigest>
void hash_candidates(const Gen& generator, const hash::SaltSpec& salt,
                     const keyspace::Interval& ids, OnDigest&& on_digest) {
  if (ids.empty()) return;
  std::string key;
  std::string message;
  generator.generate(ids.begin, key);
  for (u128 id = ids.begin;; ++id) {
    salt.apply_into(key, message);
    on_digest(id, std::as_const(key), Hasher::digest(message));
    if (id + u128(1) == ids.end) return;
    generator.next(id, key);
  }
}

}  // namespace gks::core
