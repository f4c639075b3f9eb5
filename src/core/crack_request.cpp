#include "core/crack_request.h"

#include <algorithm>

#include "core/multi_crack.h"
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

void CrackRequest::validate() const {
  SearchSpace::validate();
  GKS_REQUIRE(from_hex(target_hex).size() == hash::digest_size(algorithm),
              "target digest length does not match the algorithm");
}

}  // namespace gks::core
