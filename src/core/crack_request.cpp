#include "core/crack_request.h"

#include <algorithm>

#include "core/multi_crack.h"
#include "hash/kernel_words.h"
#include "support/error.h"
#include "support/hex.h"

namespace gks::core {

bool CrackRequest::matches(const std::string& key) const {
  // Either hex spelling names the same digest: fold the target's case
  // (setting bit 5 lower-cases A-F and leaves 0-9 as they are).
  const std::string hex = salted_digest_hex(algorithm, salt, key);
  return std::ranges::equal(hex, target_hex, {}, {},
                            [](char c) { return static_cast<char>(c | 0x20); });
}

u128 CrackRequest::id_of(const std::string& key) const {
  GKS_REQUIRE(key.size() >= min_length && key.size() <= max_length,
              "key length outside the requested range");
  const keyspace::KeyspaceGenerator generator = make_generator();
  return generator.codec().encode(key) - generator.global_offset();
}

void CrackRequest::validate() const {
  GKS_REQUIRE(min_length >= 1, "minimum key length must be at least 1");
  GKS_REQUIRE(min_length <= max_length, "invalid key length range");
  GKS_REQUIRE(max_length <= hash::kMaxKernelKeyLength,
              "maximum key length above the kernel limit (20)");
  GKS_REQUIRE(max_length + salt.extra_length() <= 55,
              "key plus salt must fit a single hash block");
  const auto digest_bytes = from_hex(target_hex);
  GKS_REQUIRE(digest_bytes.size() == hash::digest_size(algorithm),
              "target digest length does not match the algorithm");
}

}  // namespace gks::core
