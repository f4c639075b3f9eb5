#include "hash/multi_crack.h"

#include <string>

#include "hash/kernel_words.h"
#include "hash/simd/lane_vec.h"
#include "support/error.h"

namespace gks::hash {
namespace {

/// The fixed message words of every candidate of one (tail, length)
/// context, word 0 left zero; `pack` is pack_md5_block or
/// pack_sha_block.
template <class Pack>
std::array<std::uint32_t, 16> fixed_words(std::string_view tail,
                                          std::size_t total_len, Pack pack) {
  GKS_REQUIRE(total_len <= 55, "message does not fit a single block");
  if (total_len >= 4) {
    GKS_REQUIRE(tail.size() == total_len - 4,
                "tail must hold exactly the bytes after the first word");
  } else {
    GKS_REQUIRE(tail.empty(), "short keys have no tail");
  }
  std::string message(total_len, '\0');
  for (std::size_t i = 4; i < total_len; ++i) message[i] = tail[i - 4];
  return pack(message).words;
}

std::vector<std::uint32_t> md5_index_words(
    const std::vector<Md5State<std::uint32_t>>& reverted) {
  std::vector<std::uint32_t> words;
  words.reserve(reverted.size());
  for (const auto& r : reverted) words.push_back(r.a);
  return words;
}

std::vector<std::uint32_t> sha1_index_words(
    const std::vector<Sha1State<std::uint32_t>>& unfed) {
  std::vector<std::uint32_t> words;
  words.reserve(unfed.size());
  for (const auto& u : unfed) words.push_back(u.e);
  return words;
}

/// Runs every target back through MD5 steps 63..49 under the fixed
/// message words.
std::vector<Md5State<std::uint32_t>> revert_md5(
    const std::vector<Md5Digest>& targets,
    const std::array<std::uint32_t, 16>& m) {
  std::vector<Md5State<std::uint32_t>> reverted(targets.size());
  // Every target shares the fixed message words, so the 15-step
  // reversals never diverge — revert four digests in lockstep per
  // vector pass. This is the dominant cost of building a large batch's
  // per-tail context.
  using V = simd::LaneVec<4>;
  std::array<V, 16> mv;
  for (std::size_t w = 0; w < 16; ++w) mv[w] = V(m[w]);
  std::size_t i = 0;
  for (; i + 4 <= targets.size(); i += 4) {
    Md5State<V> s{};
    for (std::size_t l = 0; l < 4; ++l) {
      const std::uint8_t* p = targets[i + l].bytes.data();
      simd::lane_set(s.a, l, load_le32(p) - kMd5Init[0]);
      simd::lane_set(s.b, l, load_le32(p + 4) - kMd5Init[1]);
      simd::lane_set(s.c, l, load_le32(p + 8) - kMd5Init[2]);
      simd::lane_set(s.d, l, load_le32(p + 12) - kMd5Init[3]);
    }
    md5_reverse_steps(s, mv, 49);
    for (std::size_t l = 0; l < 4; ++l) {
      reverted[i + l] = {simd::lane_get(s.a, l), simd::lane_get(s.b, l),
                         simd::lane_get(s.c, l), simd::lane_get(s.d, l)};
    }
  }
  for (; i < targets.size(); ++i) {
    const std::uint8_t* p = targets[i].bytes.data();
    Md5State<std::uint32_t> s{load_le32(p) - kMd5Init[0],
                              load_le32(p + 4) - kMd5Init[1],
                              load_le32(p + 8) - kMd5Init[2],
                              load_le32(p + 12) - kMd5Init[3]};
    md5_reverse_steps(s, m, 49);
    reverted[i] = s;
  }
  return reverted;
}

/// Strips the SHA1 feed-forward from every target.
std::vector<Sha1State<std::uint32_t>> unfeed_sha1(
    const std::vector<Sha1Digest>& targets) {
  std::vector<Sha1State<std::uint32_t>> unfed;
  unfed.reserve(targets.size());
  for (const Sha1Digest& t : targets) {
    unfed.push_back({load_be32(t.bytes.data()) - kSha1Init[0],
                     load_be32(t.bytes.data() + 4) - kSha1Init[1],
                     load_be32(t.bytes.data() + 8) - kSha1Init[2],
                     load_be32(t.bytes.data() + 12) - kSha1Init[3],
                     load_be32(t.bytes.data() + 16) - kSha1Init[4]});
  }
  return unfed;
}

}  // namespace

Md5MultiContext::Md5MultiContext(const std::vector<Md5Digest>& targets,
                                 std::string_view tail, std::size_t total_len,
                                 const TargetIndex::Config& index_config,
                                 std::span<const std::uint32_t> retired)
    : m_(fixed_words(tail, total_len, pack_md5_block)),
      reverted_(revert_md5(targets, m_)),
      index_(md5_index_words(reverted_), index_config, retired) {
  GKS_REQUIRE(!targets.empty(), "need at least one target digest");
}

bool Md5MultiContext::confirm(const std::array<std::uint32_t, 16>& m,
                              const Md5State<std::uint32_t>& s45,
                              std::uint32_t t45,
                              const Md5State<std::uint32_t>& r) const {
  // Finish steps 46..48 and verify the remaining three registers (the
  // index already established r.a == t45).
  const std::uint32_t t46 = md5_step(46, s45.d, t45, s45.b, s45.c, m);
  if (t46 != r.d) return false;
  const std::uint32_t t47 = md5_step(47, s45.c, t46, t45, s45.b, m);
  if (t47 != r.c) return false;
  const std::uint32_t t48 = md5_step(48, s45.b, t47, t46, t45, m);
  return t48 == r.b;
}

std::size_t Md5MultiContext::test(std::uint32_t m0) const {
  std::array<std::uint32_t, 16> m = m_;
  m[0] = m0;

  Md5State<std::uint32_t> s{kMd5Init[0], kMd5Init[1], kMd5Init[2],
                            kMd5Init[3]};
  md5_forward_steps(s, m, 45);

  // One early-exit value, one filter load — target count never enters.
  const std::uint32_t t45 = md5_step(45, s.a, s.b, s.c, s.d, m);
  if (!index_.may_match(t45)) return npos;

  // Rare path: every target whose reverted word matches is confirmed —
  // 32-bit collisions between targets must not shadow the real one.
  const auto slots = index_.matches(t45);
  for (const std::uint32_t slot : slots) {
    if (confirm(m, s, t45, reverted_[slot])) return slot;
  }
  if (!slots.empty()) index_.note_false_positive();
  return npos;
}

void Md5MultiContext::test_hits(std::uint32_t m0, std::uint64_t offset,
                                std::vector<MultiHit>& out) const {
  std::array<std::uint32_t, 16> m = m_;
  m[0] = m0;

  Md5State<std::uint32_t> s{kMd5Init[0], kMd5Init[1], kMd5Init[2],
                            kMd5Init[3]};
  md5_forward_steps(s, m, 45);
  const std::uint32_t t45 = md5_step(45, s.a, s.b, s.c, s.d, m);
  if (!index_.may_match(t45)) return;
  confirm_hits(m0, s, t45, offset, out);
}

void Md5MultiContext::confirm_hits(std::uint32_t m0,
                                   const Md5State<std::uint32_t>& s45,
                                   std::uint32_t t45, std::uint64_t offset,
                                   std::vector<MultiHit>& out) const {
  // The usual filter false positive resolves right here: no target owns
  // the word, so the slot lookup is the entire cost.
  const auto slots = index_.matches(t45);
  if (slots.empty()) return;
  std::array<std::uint32_t, 16> m = m_;
  m[0] = m0;
  const std::size_t before = out.size();
  for (const std::uint32_t slot : slots) {
    if (confirm(m, s45, t45, reverted_[slot])) out.push_back({offset, slot});
  }
  if (out.size() == before) index_.note_false_positive();
}

Sha1MultiContext::Sha1MultiContext(const std::vector<Sha1Digest>& targets,
                                   std::string_view tail,
                                   std::size_t total_len,
                                   const TargetIndex::Config& index_config,
                                   std::span<const std::uint32_t> retired)
    : m_(fixed_words(tail, total_len, pack_sha_block)),
      unfed_(unfeed_sha1(targets)),
      index_(sha1_index_words(unfed_), index_config, retired) {
  GKS_REQUIRE(!targets.empty(), "need at least one target digest");
}

bool Sha1MultiContext::confirm(std::array<std::uint32_t, 16> ring,
                               Sha1State<std::uint32_t> s,
                               const Sha1State<std::uint32_t>& u) const {
  // Steps 76..79 on private copies of the ring and registers, so one
  // confirm cannot corrupt the state another colliding target needs.
  sha1_step(s, 76, sha1_expand(ring, 76));
  if (rotl(s.a, 30) != u.d) return false;
  sha1_step(s, 77, sha1_expand(ring, 77));
  if (rotl(s.a, 30) != u.c) return false;
  sha1_step(s, 78, sha1_expand(ring, 78));
  if (s.a != u.b) return false;
  sha1_step(s, 79, sha1_expand(ring, 79));
  return s.a == u.a;
}

std::size_t Sha1MultiContext::test(std::uint32_t w0) const {
  std::array<std::uint32_t, 16> ring = m_;
  ring[0] = w0;

  Sha1State<std::uint32_t> s{kSha1Init[0], kSha1Init[1], kSha1Init[2],
                             kSha1Init[3], kSha1Init[4]};
  sha1_ring_steps(s, ring, 76);

  const std::uint32_t check = rotl(s.a, 30);
  if (!index_.may_match(check)) return npos;
  const auto slots = index_.matches(check);
  for (const std::uint32_t slot : slots) {
    if (confirm(ring, s, unfed_[slot])) return slot;
  }
  if (!slots.empty()) index_.note_false_positive();
  return npos;
}

void Sha1MultiContext::test_hits(std::uint32_t w0, std::uint64_t offset,
                                 std::vector<MultiHit>& out) const {
  std::array<std::uint32_t, 16> ring = m_;
  ring[0] = w0;

  Sha1State<std::uint32_t> s{kSha1Init[0], kSha1Init[1], kSha1Init[2],
                             kSha1Init[3], kSha1Init[4]};
  sha1_ring_steps(s, ring, 76);

  const std::uint32_t check = rotl(s.a, 30);
  if (!index_.may_match(check)) return;
  confirm_hits(ring, s, offset, out);
}

void Sha1MultiContext::confirm_hits(const std::array<std::uint32_t, 16>& ring,
                                    const Sha1State<std::uint32_t>& s76,
                                    std::uint64_t offset,
                                    std::vector<MultiHit>& out) const {
  const std::uint32_t check = rotl(s76.a, 30);
  const auto slots = index_.matches(check);
  if (slots.empty()) return;
  const std::size_t before = out.size();
  for (const std::uint32_t slot : slots) {
    if (confirm(ring, s76, unfed_[slot])) {
      out.push_back({offset, slot});
    }
  }
  if (out.size() == before) index_.note_false_positive();
}

void md5_multi_scan_prefixes(const Md5MultiContext& ctx,
                             PrefixWord0Iterator& it, std::uint64_t count,
                             std::vector<MultiHit>& hits) {
  for (std::uint64_t i = 0; i < count; ++i) {
    ctx.test_hits(it.word0(), i, hits);
    it.advance();
  }
}

void sha1_multi_scan_prefixes(const Sha1MultiContext& ctx,
                              PrefixWord0Iterator& it, std::uint64_t count,
                              std::vector<MultiHit>& hits) {
  for (std::uint64_t i = 0; i < count; ++i) {
    ctx.test_hits(it.word0(), i, hits);
    it.advance();
  }
}

}  // namespace gks::hash
