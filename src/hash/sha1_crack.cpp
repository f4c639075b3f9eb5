#include "hash/sha1_crack.h"

#include <string>

#include "support/error.h"

namespace gks::hash {
Sha1CrackContext::Sha1CrackContext(const Sha1Digest& target,
                                   std::string_view tail,
                                   std::size_t total_len)
    : target_(target) {
  GKS_REQUIRE(total_len <= 55, "message does not fit a single SHA1 block");
  if (total_len >= 4) {
    GKS_REQUIRE(tail.size() == total_len - 4,
                "tail must hold exactly the bytes after the first word");
  } else {
    GKS_REQUIRE(tail.empty(), "short keys have no tail");
  }

  std::string message(total_len, '\0');
  for (std::size_t i = 4; i < total_len; ++i) message[i] = tail[i - 4];
  m_ = pack_sha_block(message).words;

  unfed_ = {load_be32(target.bytes.data()) - kSha1Init[0],
            load_be32(target.bytes.data() + 4) - kSha1Init[1],
            load_be32(target.bytes.data() + 8) - kSha1Init[2],
            load_be32(target.bytes.data() + 12) - kSha1Init[3],
            load_be32(target.bytes.data() + 16) - kSha1Init[4]};
}

bool Sha1CrackContext::test(std::uint32_t w0) const {
  std::array<std::uint32_t, 16> ring = m_;
  ring[0] = w0;

  Sha1State<std::uint32_t> s{kSha1Init[0], kSha1Init[1], kSha1Init[2],
                             kSha1Init[3], kSha1Init[4]};
  sha1_ring_steps(s, ring, 76);

  // Early exit: the value produced at step 75 (now in register `a`,
  // about to be rotated into position) settles into the final state's e
  // after the remaining four register shuffles; likewise 76 -> d,
  // 77 -> c, 78 -> b, 79 -> a. Each comparison usually fails on the
  // first check, skipping four steps and their expansion work.
  if (rotl(s.a, 30) != unfed_.e) return false;
  sha1_step(s, 76, sha1_expand(ring, 76));
  if (rotl(s.a, 30) != unfed_.d) return false;
  sha1_step(s, 77, sha1_expand(ring, 77));
  if (rotl(s.a, 30) != unfed_.c) return false;
  sha1_step(s, 78, sha1_expand(ring, 78));
  if (s.a != unfed_.b) return false;
  sha1_step(s, 79, sha1_expand(ring, 79));
  return s.a == unfed_.a;
}

bool Sha1CrackContext::test_plain(std::uint32_t w0) const {
  std::array<std::uint32_t, 16> m = m_;
  m[0] = w0;
  const Sha1State<std::uint32_t> s = sha1_single_block(m);
  return s.a == load_be32(target_.bytes.data()) &&
         s.b == load_be32(target_.bytes.data() + 4) &&
         s.c == load_be32(target_.bytes.data() + 8) &&
         s.d == load_be32(target_.bytes.data() + 12) &&
         s.e == load_be32(target_.bytes.data() + 16);
}

std::optional<std::uint64_t> sha1_scan_prefixes(const Sha1CrackContext& ctx,
                                                PrefixWord0Iterator& it,
                                                std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) {
    if (ctx.test(it.word0())) {
      it.advance();
      return i;
    }
    it.advance();
  }
  return std::nullopt;
}

}  // namespace gks::hash
