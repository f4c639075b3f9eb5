#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "support/error.h"

namespace gks::hash {

/// Maximum key length the fixed-length crack kernels accept. The paper
/// limits keys to 20 characters (Section IV-A); anything up to 55 bytes
/// would still fit a single 64-byte block, but 20 keeps every kernel in
/// the single-block fast path with margin for salts.
inline constexpr std::size_t kMaxKernelKeyLength = 20;

/// Rotate-left on 32-bit words. On CUDA targets this is the operation
/// the compiler lowers to SHL+SHR+ADD (cc 1.x), SHL+IMAD (cc 2.x/3.0)
/// or a funnel shift (cc 3.5); see simgpu::Lowering.
constexpr std::uint32_t rotl(std::uint32_t x, unsigned n) {
  return (x << n) | (x >> (32u - n));
}

/// Rotate-right on 32-bit words.
constexpr std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32u - n));
}

/// Logical shift-right customization point (distinct from operator>>
/// so traced words can tell shifts apart from other uses).
constexpr std::uint32_t shr(std::uint32_t x, unsigned n) { return x >> n; }

/// A 16-word one-block message schedule plus original byte length.
/// This is the unit the kernels consume; `Md5Block`/`Sha1Block` encode
/// endianness at packing time so the compression cores stay word-only.
struct MessageBlock {
  std::array<std::uint32_t, 16> words{};
  std::size_t length = 0;  ///< message byte length encoded in the padding
};

/// Packs `key` into an MD5 message block: little-endian words, 0x80
/// terminator, zero fill, bit length in word 14 (RFC 1321 §3.1-3.3).
/// Requires key.size() <= 55 so the whole padded message is one block.
inline MessageBlock pack_md5_block(std::string_view key) {
  GKS_REQUIRE(key.size() <= 55, "key does not fit a single MD5 block");
  MessageBlock b;
  b.length = key.size();
  std::array<std::uint8_t, 64> bytes{};
  for (std::size_t i = 0; i < key.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(key[i]);
  bytes[key.size()] = 0x80;
  for (std::size_t w = 0; w < 16; ++w) {
    b.words[w] = static_cast<std::uint32_t>(bytes[4 * w]) |
                 static_cast<std::uint32_t>(bytes[4 * w + 1]) << 8 |
                 static_cast<std::uint32_t>(bytes[4 * w + 2]) << 16 |
                 static_cast<std::uint32_t>(bytes[4 * w + 3]) << 24;
  }
  b.words[14] = static_cast<std::uint32_t>(key.size() * 8);
  b.words[15] = 0;
  return b;
}

/// Packs `key` into a SHA1/SHA256 message block: big-endian words, 0x80
/// terminator, zero fill, bit length in word 15 (RFC 3174 §4).
inline MessageBlock pack_sha_block(std::string_view key) {
  GKS_REQUIRE(key.size() <= 55, "key does not fit a single SHA block");
  MessageBlock b;
  b.length = key.size();
  std::array<std::uint8_t, 64> bytes{};
  for (std::size_t i = 0; i < key.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(key[i]);
  bytes[key.size()] = 0x80;
  for (std::size_t w = 0; w < 16; ++w) {
    b.words[w] = static_cast<std::uint32_t>(bytes[4 * w]) << 24 |
                 static_cast<std::uint32_t>(bytes[4 * w + 1]) << 16 |
                 static_cast<std::uint32_t>(bytes[4 * w + 2]) << 8 |
                 static_cast<std::uint32_t>(bytes[4 * w + 3]);
  }
  b.words[15] = static_cast<std::uint32_t>(key.size() * 8);
  return b;
}

/// Repacks the first four key characters into MD5 message word 0.
/// This is the only word a crack-kernel thread mutates while walking
/// its interval with the prefix-major `next` operator, so it has a
/// dedicated fast path.
inline std::uint32_t pack_md5_word0(const char* prefix, std::size_t key_len) {
  const std::size_t n = key_len < 4 ? key_len : 4;
  std::uint32_t word = 0;
  for (std::size_t i = 0; i < n; ++i)
    word |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(prefix[i]))
            << (8 * i);
  if (key_len < 4) word |= 0x80u << (8 * key_len);  // the terminator
  return word;
}

/// Repacks the first four key characters into SHA1 message word 0
/// (big-endian counterpart of pack_md5_word0).
inline std::uint32_t pack_sha_word0(const char* prefix, std::size_t key_len) {
  const std::size_t n = key_len < 4 ? key_len : 4;
  std::uint32_t word = 0;
  for (std::size_t i = 0; i < n; ++i)
    word |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(prefix[i]))
            << (24 - 8 * i);
  if (key_len < 4) word |= 0x80u << (24 - 8 * key_len);  // the terminator
  return word;
}

}  // namespace gks::hash
