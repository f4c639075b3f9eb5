#pragma once

// Internal: entry points of the scanner translation units scan_wN.cpp,
// N the vector width (a pass is 2N candidates). The dispatch table
// (dispatch.cpp) is the only consumer; user code goes through dispatch.h.

#include <cstdint>
#include <optional>
#include <vector>

namespace gks::hash {
class Md5CrackContext;
class Md5MultiContext;
struct MultiHit;
class PrefixWord0Iterator;
class Sha1CrackContext;
class Sha1MultiContext;
}  // namespace gks::hash

namespace gks::hash::simd {

std::optional<std::uint64_t> md5_scan_w4(const Md5CrackContext& ctx,
                                         PrefixWord0Iterator& it,
                                         std::uint64_t count);
std::optional<std::uint64_t> sha1_scan_w4(const Sha1CrackContext& ctx,
                                          PrefixWord0Iterator& it,
                                          std::uint64_t count);

std::optional<std::uint64_t> md5_scan_w8(const Md5CrackContext& ctx,
                                         PrefixWord0Iterator& it,
                                         std::uint64_t count);
std::optional<std::uint64_t> sha1_scan_w8(const Sha1CrackContext& ctx,
                                          PrefixWord0Iterator& it,
                                          std::uint64_t count);

std::optional<std::uint64_t> md5_scan_w16(const Md5CrackContext& ctx,
                                          PrefixWord0Iterator& it,
                                          std::uint64_t count);
std::optional<std::uint64_t> sha1_scan_w16(const Sha1CrackContext& ctx,
                                           PrefixWord0Iterator& it,
                                           std::uint64_t count);

// Multi-target counterparts (TargetIndex filter per lane, all hits in
// the range appended — see scan_impl.h).

void md5_multi_scan_w4(const Md5MultiContext& ctx, PrefixWord0Iterator& it,
                       std::uint64_t count, std::vector<MultiHit>& hits);
void sha1_multi_scan_w4(const Sha1MultiContext& ctx, PrefixWord0Iterator& it,
                        std::uint64_t count, std::vector<MultiHit>& hits);

void md5_multi_scan_w8(const Md5MultiContext& ctx, PrefixWord0Iterator& it,
                       std::uint64_t count, std::vector<MultiHit>& hits);
void sha1_multi_scan_w8(const Sha1MultiContext& ctx, PrefixWord0Iterator& it,
                        std::uint64_t count, std::vector<MultiHit>& hits);

void md5_multi_scan_w16(const Md5MultiContext& ctx, PrefixWord0Iterator& it,
                        std::uint64_t count, std::vector<MultiHit>& hits);
void sha1_multi_scan_w16(const Sha1MultiContext& ctx, PrefixWord0Iterator& it,
                         std::uint64_t count, std::vector<MultiHit>& hits);

}  // namespace gks::hash::simd
