// 8-lane scanners: two 256-bit vectors of 32-bit words per pass (16
// candidates). Built with -mavx2 when the compiler supports it (see
// src/hash/CMakeLists.txt); dispatch runs these only on AVX2 hosts.

#include "hash/simd/scan_impl.h"
#include "hash/simd/scan_kernels.h"

namespace gks::hash::simd {

std::optional<std::uint64_t> md5_scan_w8(const Md5CrackContext& ctx,
                                         PrefixWord0Iterator& it,
                                         std::uint64_t count) {
  return md5_scan_prefixes_vec<8>(ctx, it, count);
}

std::optional<std::uint64_t> sha1_scan_w8(const Sha1CrackContext& ctx,
                                          PrefixWord0Iterator& it,
                                          std::uint64_t count) {
  return sha1_scan_prefixes_vec<8>(ctx, it, count);
}

void md5_multi_scan_w8(const Md5MultiContext& ctx, PrefixWord0Iterator& it,
                       std::uint64_t count, std::vector<MultiHit>& hits) {
  md5_multi_scan_vec<8>(ctx, it, count, hits);
}

void sha1_multi_scan_w8(const Sha1MultiContext& ctx, PrefixWord0Iterator& it,
                        std::uint64_t count, std::vector<MultiHit>& hits) {
  sha1_multi_scan_vec<8>(ctx, it, count, hits);
}

}  // namespace gks::hash::simd
