#include "hash/md5_crack.h"

#include <string>

#include "support/error.h"

namespace gks::hash {
Md5CrackContext::Md5CrackContext(const Md5Digest& target,
                                 std::string_view tail, std::size_t total_len)
    : target_(target) {
  GKS_REQUIRE(total_len <= 55, "message does not fit a single MD5 block");
  if (total_len >= 4) {
    GKS_REQUIRE(tail.size() == total_len - 4,
                "tail must hold exactly the bytes after the first word");
  } else {
    GKS_REQUIRE(tail.empty(), "short keys have no tail");
  }

  // Assemble the fixed block with a placeholder first word.
  std::string message(total_len, '\0');
  for (std::size_t i = 4; i < total_len; ++i) message[i] = tail[i - 4];
  m_ = pack_md5_block(message).words;

  // Undo the feed-forward, then revert steps 63..49. None of those
  // steps reads word 0, so the placeholder is harmless.
  Md5State<std::uint32_t> t{
      load_le32(target.bytes.data()) - kMd5Init[0],
      load_le32(target.bytes.data() + 4) - kMd5Init[1],
      load_le32(target.bytes.data() + 8) - kMd5Init[2],
      load_le32(target.bytes.data() + 12) - kMd5Init[3]};
  md5_reverse_steps(t, m_, 49);
  reverted_ = t;
}

bool Md5CrackContext::test(std::uint32_t m0) const {
  std::array<std::uint32_t, 16> m = m_;
  m[0] = m0;

  Md5State<std::uint32_t> s{kMd5Init[0], kMd5Init[1], kMd5Init[2],
                            kMd5Init[3]};
  md5_forward_steps(s, m, 45);

  // Steps 45..48 with early exit. The value produced at step 45 lands
  // in register a of the after-step-48 state, 46 in d, 47 in c, 48 in b.
  const std::uint32_t t45 = md5_step(45, s.a, s.b, s.c, s.d, m);
  if (t45 != reverted_.a) return false;
  const std::uint32_t t46 = md5_step(46, s.d, t45, s.b, s.c, m);
  if (t46 != reverted_.d) return false;
  const std::uint32_t t47 = md5_step(47, s.c, t46, t45, s.b, m);
  if (t47 != reverted_.c) return false;
  const std::uint32_t t48 = md5_step(48, s.b, t47, t46, t45, m);
  return t48 == reverted_.b;
}

bool Md5CrackContext::test_plain(std::uint32_t m0) const {
  std::array<std::uint32_t, 16> m = m_;
  m[0] = m0;
  const Md5State<std::uint32_t> s = md5_single_block(m);
  return s.a == load_le32(target_.bytes.data()) &&
         s.b == load_le32(target_.bytes.data() + 4) &&
         s.c == load_le32(target_.bytes.data() + 8) &&
         s.d == load_le32(target_.bytes.data() + 12);
}

PrefixWord0Iterator::PrefixWord0Iterator(std::span<const char> charset,
                                         unsigned prefix_chars,
                                         std::size_t key_len, bool big_endian)
    : charset_(charset),
      prefix_chars_(prefix_chars),
      key_len_(key_len),
      big_endian_(big_endian) {
  GKS_REQUIRE(!charset.empty(), "charset must not be empty");
  GKS_REQUIRE(prefix_chars >= 1 && prefix_chars <= 4,
              "prefix must cover 1..4 characters");
  // The iterator owns every byte of word 0, so the varying window must
  // be exactly the key characters that live there: any smaller and the
  // remaining word-0 bytes would be fixed key characters it cannot know.
  GKS_REQUIRE(prefix_chars == (key_len < 4 ? key_len : 4),
              "prefix must cover min(4, key_len) characters");
  for (unsigned i = 0; i < prefix_chars_; ++i) chars_[i] = charset_[0];
  pack_all();
}

void PrefixWord0Iterator::pack_all() {
  std::array<std::uint8_t, 4> b{};
  const std::size_t n = key_len_ < 4 ? key_len_ : 4;
  for (std::size_t i = 0; i < n; ++i)
    b[i] = i < prefix_chars_ ? static_cast<std::uint8_t>(chars_[i]) : 0;
  if (key_len_ < 4) b[key_len_] = 0x80;
  if (big_endian_) {
    word_ = static_cast<std::uint32_t>(b[0]) << 24 |
            static_cast<std::uint32_t>(b[1]) << 16 |
            static_cast<std::uint32_t>(b[2]) << 8 |
            static_cast<std::uint32_t>(b[3]);
  } else {
    word_ = static_cast<std::uint32_t>(b[0]) |
            static_cast<std::uint32_t>(b[1]) << 8 |
            static_cast<std::uint32_t>(b[2]) << 16 |
            static_cast<std::uint32_t>(b[3]) << 24;
  }
}

void PrefixWord0Iterator::set_char(unsigned pos, char c) {
  chars_[pos] = c;
  const unsigned shift = big_endian_ ? 8u * (3 - pos) : 8u * pos;
  word_ = (word_ & ~(0xFFu << shift)) |
          (static_cast<std::uint32_t>(static_cast<std::uint8_t>(c)) << shift);
}

void PrefixWord0Iterator::seek(std::span<const std::uint32_t> digits) {
  GKS_REQUIRE(digits.size() == prefix_chars_,
              "seek needs one digit per prefix character");
  for (unsigned i = 0; i < prefix_chars_; ++i) {
    GKS_REQUIRE(digits[i] < charset_.size(), "digit outside charset");
    digits_[i] = digits[i];
    chars_[i] = charset_[digits[i]];
  }
  pack_all();
}

bool PrefixWord0Iterator::advance() {
  // Prefix-major order: the first character is the fastest digit, the
  // word-0 analogue of the paper's modified `next` operator.
  for (unsigned pos = 0; pos < prefix_chars_; ++pos) {
    if (++digits_[pos] < charset_.size()) {
      set_char(pos, charset_[digits_[pos]]);
      return true;
    }
    digits_[pos] = 0;
    set_char(pos, charset_[0]);
  }
  return false;  // wrapped around
}

std::uint64_t PrefixWord0Iterator::combinations() const {
  std::uint64_t n = 1;
  for (unsigned i = 0; i < prefix_chars_; ++i) n *= charset_.size();
  return n;
}

std::optional<std::uint64_t> md5_scan_prefixes(const Md5CrackContext& ctx,
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
