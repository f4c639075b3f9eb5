#include "core/search_space.h"

#include "hash/kernel_words.h"
#include "support/error.h"

namespace gks::core {

u128 SearchSpace::id_of(const std::string& key) const {
  GKS_REQUIRE(key.size() >= min_length && key.size() <= max_length,
              "key length outside the requested range");
  const keyspace::KeyspaceGenerator generator = make_generator();
  return generator.codec().encode(key) - generator.global_offset();
}

void SearchSpace::validate() const {
  GKS_REQUIRE(min_length >= 1, "minimum key length must be at least 1");
  GKS_REQUIRE(min_length <= max_length, "invalid key length range");
  GKS_REQUIRE(max_length <= hash::kMaxKernelKeyLength,
              "maximum key length above the kernel limit (20)");
  // 55 bytes leave room for the 0x80 pad byte and the 8-byte length.
  GKS_REQUIRE(max_length + salt.extra_length() <= 55,
              "key plus salt must fit a single hash block");
}

}  // namespace gks::core
