// 4-lane scanners: two 128-bit vectors per pass, 8 candidates. SSE2 on
// x86-64 baseline: always executable, the floor of the dispatch ladder.

#include "hash/simd/scan_impl.h"
#include "hash/simd/scan_kernels.h"

namespace gks::hash::simd {

std::optional<std::uint64_t> md5_scan_w4(const Md5CrackContext& ctx,
                                         PrefixWord0Iterator& it,
                                         std::uint64_t count) {
  return md5_scan_prefixes_vec<4>(ctx, it, count);
}

std::optional<std::uint64_t> sha1_scan_w4(const Sha1CrackContext& ctx,
                                          PrefixWord0Iterator& it,
                                          std::uint64_t count) {
  return sha1_scan_prefixes_vec<4>(ctx, it, count);
}

void md5_multi_scan_w4(const Md5MultiContext& ctx, PrefixWord0Iterator& it,
                       std::uint64_t count, std::vector<MultiHit>& hits) {
  md5_multi_scan_vec<4>(ctx, it, count, hits);
}

void sha1_multi_scan_w4(const Sha1MultiContext& ctx, PrefixWord0Iterator& it,
                        std::uint64_t count, std::vector<MultiHit>& hits) {
  sha1_multi_scan_vec<4>(ctx, it, count, hits);
}

}  // namespace gks::hash::simd
