#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "support/hex.h"

namespace gks::hash {

/// Fixed-size message digest (N bytes). Value type with ordering so
/// digests can key maps and be compared bytewise.
template <std::size_t N>
struct Digest {
  std::array<std::uint8_t, N> bytes{};

  static constexpr std::size_t size() { return N; }

  /// Parses the canonical lower/upper-case hex form ("d41d8cd98f00...").
  static Digest from_hex(std::string_view hex) {
    return Digest{gks::from_hex_fixed<N>(hex)};
  }

  /// Canonical lower-case hex rendering.
  std::string to_hex() const { return gks::to_hex(bytes); }

  auto operator<=>(const Digest&) const = default;
};

/// The 32-bit word at `p` in little-endian (MD5) / big-endian (SHA)
/// byte order — how the digests lay out their state words.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}
inline std::uint32_t load_be32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 |
         static_cast<std::uint32_t>(p[3]);
}

/// 128-bit MD5 digest (RFC 1321).
using Md5Digest = Digest<16>;
/// 160-bit SHA1 digest (RFC 3174).
using Sha1Digest = Digest<20>;
/// 256-bit SHA256 digest (FIPS 180-4).
using Sha256Digest = Digest<32>;

/// Identifies which hash algorithm a crack request targets.
enum class Algorithm { kMd5, kSha1, kSha256 };

/// Human-readable algorithm name ("MD5", "SHA1", "SHA256").
constexpr const char* algorithm_name(Algorithm a) {
  switch (a) {
    case Algorithm::kMd5: return "MD5";
    case Algorithm::kSha1: return "SHA1";
    case Algorithm::kSha256: return "SHA256";
  }
  return "?";
}

/// Digest size in bytes for an algorithm.
constexpr std::size_t digest_size(Algorithm a) {
  switch (a) {
    case Algorithm::kMd5: return 16;
    case Algorithm::kSha1: return 20;
    case Algorithm::kSha256: return 32;
  }
  return 0;
}

}  // namespace gks::hash
