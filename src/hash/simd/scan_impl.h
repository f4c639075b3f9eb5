#pragma once

// Width-generic lane scanners over LaneVec<N>. This header is included
// by exactly one translation unit per width (scan_w4/w8/w16.cpp), each
// compiled with its own target flags, so every instantiation gets the
// codegen of its ISA rung. Do not include it anywhere else — the
// dispatch table (simd/dispatch.h) is the public surface.
//
// Semantics are bit-identical to the scalar engines: scan `count`
// prefix-major candidates from the iterator's position, return the
// offset of the first match, leave the iterator past the scanned range
// (just past the hit on a match). The paper's early exit survives
// vectorization as a movemask-style any-lane test: MD5 compares only
// the step-45 value against the reverted target's `a` word and skips
// steps 46..48 for the whole block when no lane can match (Section V-B
// "save three more steps"); SHA1 compares the step-75 value against the
// unfed target's `e` and skips the last four steps plus their message
// expansion. Rare any-lane passes (true hit, or a ~N·2^-32 partial-word
// collision) are confirmed lane by lane with the scalar kernel, which
// also preserves exact first-match ordering.

#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "hash/md5_crack.h"
#include "hash/md5_kernel.h"
#include "hash/multi_crack.h"
#include "hash/sha1_crack.h"
#include "hash/sha1_kernel.h"
#include "hash/simd/lane_vec.h"
#include "hash/target_index.h"

namespace gks::hash::simd {

template <std::size_t N>
std::optional<std::uint64_t> md5_scan_prefixes_vec(const Md5CrackContext& ctx,
                                                   PrefixWord0Iterator& it,
                                                   std::uint64_t count) {
  using W = LaneVec<N>;

  // Broadcast the fixed message words once; only word 0 varies.
  std::array<W, 16> m;
  for (std::size_t w = 1; w < 16; ++w) m[w] = W(ctx.message_words()[w]);
  const Md5State<std::uint32_t>& rev = ctx.reverted_target();

  std::uint64_t scanned = 0;
  std::array<std::uint32_t, N> word0s;
  while (count - scanned >= N) {
    // Keep the block's start so a hit can reposition the iterator to
    // the candidate after the match, exactly like the scalar scanner.
    const PrefixWord0Iterator block_start = it;
    it.next_words(word0s.data(), N);
    m[0] = lane_load<N>(word0s.data());

    Md5State<W> s{W(kMd5Init[0]), W(kMd5Init[1]), W(kMd5Init[2]),
                  W(kMd5Init[3])};
    md5_forward_steps(s, m, 45);

    // The value produced at step 45 settles into register a of the
    // after-step-48 state, so comparing it against the reverted
    // target's a rejects the whole block without steps 46..48.
    const W t45 = md5_step(45, s.a, s.b, s.c, s.d, m);
    if (any_lane_eq(t45, rev.a)) {
      for (std::size_t l = 0; l < N; ++l) {
        if (ctx.test(word0s[l])) {
          it = block_start;
          for (std::size_t skip = 0; skip <= l; ++skip) it.advance();
          return scanned + l;
        }
      }
    }
    scanned += N;
  }

  // Scalar tail: fewer than N candidates left.
  if (scanned < count) {
    const auto hit = md5_scan_prefixes(ctx, it, count - scanned);
    if (hit) return scanned + *hit;
  }
  return std::nullopt;
}

template <std::size_t N>
std::optional<std::uint64_t> sha1_scan_prefixes_vec(
    const Sha1CrackContext& ctx, PrefixWord0Iterator& it,
    std::uint64_t count) {
  using W = LaneVec<N>;

  std::array<W, 16> m;
  for (std::size_t w = 1; w < 16; ++w) m[w] = W(ctx.message_words()[w]);
  const Sha1State<std::uint32_t>& unfed = ctx.unfed_target();

  std::uint64_t scanned = 0;
  std::array<std::uint32_t, N> word0s;
  while (count - scanned >= N) {
    const PrefixWord0Iterator block_start = it;
    it.next_words(word0s.data(), N);
    m[0] = lane_load<N>(word0s.data());

    Sha1State<W> s{W(kSha1Init[0]), W(kSha1Init[1]), W(kSha1Init[2]),
                   W(kSha1Init[3]), W(kSha1Init[4])};
    // The value produced at step 75 settles (rotated) into the final
    // state's e; comparing it rejects the block without steps 76..79
    // and their expansion work.
    sha1_forward_steps(s, m, 76);
    if (any_lane_eq(rotl(s.a, 30), unfed.e)) {
      for (std::size_t l = 0; l < N; ++l) {
        if (ctx.test(word0s[l])) {
          it = block_start;
          for (std::size_t skip = 0; skip <= l; ++skip) it.advance();
          return scanned + l;
        }
      }
    }
    scanned += N;
  }

  if (scanned < count) {
    const auto hit = sha1_scan_prefixes(ctx, it, count - scanned);
    if (hit) return scanned + *hit;
  }
  return std::nullopt;
}

/// Lanes whose early-exit word hits the target index's bit filter,
/// as a bitmask. The words leave the vector registers through one
/// lane_store spill (per-lane extracts would dominate the block); the
/// filter probes themselves are one scalar load per lane (a bit-array
/// gather has no portable vector-extension form), accumulated
/// branchlessly so the hot loop keeps its single
/// almost-never-taken branch.
template <std::size_t N>
inline std::uint32_t filter_hit_lanes(const LaneVec<N>& words,
                                      const TargetIndex& index) {
  std::array<std::uint32_t, N> w;
  lane_store(words, w.data());
  std::uint32_t mask = 0;
  for (std::size_t l = 0; l < N; ++l) {
    mask |= static_cast<std::uint32_t>(index.may_match(w[l])) << l;
  }
  return mask;
}

// Multi-target lane scanners: same block structure as the single-target
// kernels above, but the early-exit word of every lane is tested
// against the shared TargetIndex instead of one reverted word, so the
// per-candidate cost stays O(1) in the target count. No early return —
// a batch sweep reports every hit in the range — and filter hits are
// resolved through the context's confirm_hits from the state already
// sitting in the vector registers: a false positive (~1/32 of
// candidates) costs one slot lookup, never a scalar hash recompute.
// Hit order (offset ascending, slots ascending per candidate) is
// bit-identical to the scalar md5/sha1_multi_scan_prefixes.

template <std::size_t N>
void md5_multi_scan_vec(const Md5MultiContext& ctx, PrefixWord0Iterator& it,
                        std::uint64_t count, std::vector<MultiHit>& hits) {
  using W = LaneVec<N>;

  std::array<W, 16> m;
  for (std::size_t w = 1; w < 16; ++w) m[w] = W(ctx.message_words()[w]);
  const TargetIndex& index = ctx.index();

  std::uint64_t scanned = 0;
  std::array<std::uint32_t, N> word0s;
  while (count - scanned >= N) {
    it.next_words(word0s.data(), N);
    m[0] = lane_load<N>(word0s.data());

    Md5State<W> s{W(kMd5Init[0]), W(kMd5Init[1]), W(kMd5Init[2]),
                  W(kMd5Init[3])};
    md5_forward_steps(s, m, 45);
    const W t45 = md5_step(45, s.a, s.b, s.c, s.d, m);

    std::uint32_t lanes = filter_hit_lanes(t45, index);
    while (lanes != 0) {
      const unsigned l = static_cast<unsigned>(std::countr_zero(lanes));
      lanes &= lanes - 1;
      const Md5State<std::uint32_t> s_l{lane_get(s.a, l), lane_get(s.b, l),
                                        lane_get(s.c, l), lane_get(s.d, l)};
      ctx.confirm_hits(word0s[l], s_l, lane_get(t45, l), scanned + l, hits);
    }
    scanned += N;
  }

  // Scalar tail: fewer than N candidates left.
  if (scanned < count) {
    const std::size_t before = hits.size();
    md5_multi_scan_prefixes(ctx, it, count - scanned, hits);
    for (std::size_t i = before; i < hits.size(); ++i) {
      hits[i].offset += scanned;
    }
  }
}

template <std::size_t N>
void sha1_multi_scan_vec(const Sha1MultiContext& ctx, PrefixWord0Iterator& it,
                         std::uint64_t count, std::vector<MultiHit>& hits) {
  using W = LaneVec<N>;

  std::array<W, 16> m;
  for (std::size_t w = 1; w < 16; ++w) m[w] = W(ctx.message_words()[w]);
  const TargetIndex& index = ctx.index();

  std::uint64_t scanned = 0;
  std::array<std::uint32_t, N> word0s;
  while (count - scanned >= N) {
    it.next_words(word0s.data(), N);
    m[0] = lane_load<N>(word0s.data());

    // sha1_ring_steps rather than sha1_forward_steps: confirm_hits
    // needs the schedule ring as of step 76, and extracting it from
    // vector registers on the rare filter hit is far cheaper than
    // recomputing 76 scalar steps.
    std::array<W, 16> ring = m;
    Sha1State<W> s{W(kSha1Init[0]), W(kSha1Init[1]), W(kSha1Init[2]),
                   W(kSha1Init[3]), W(kSha1Init[4])};
    sha1_ring_steps(s, ring, 76);

    std::uint32_t lanes = filter_hit_lanes(rotl(s.a, 30), index);
    while (lanes != 0) {
      const unsigned l = static_cast<unsigned>(std::countr_zero(lanes));
      lanes &= lanes - 1;
      std::array<std::uint32_t, 16> ring_l;
      for (std::size_t k = 0; k < 16; ++k) ring_l[k] = lane_get(ring[k], l);
      const Sha1State<std::uint32_t> s_l{lane_get(s.a, l), lane_get(s.b, l),
                                         lane_get(s.c, l), lane_get(s.d, l),
                                         lane_get(s.e, l)};
      ctx.confirm_hits(ring_l, s_l, scanned + l, hits);
    }
    scanned += N;
  }

  if (scanned < count) {
    const std::size_t before = hits.size();
    sha1_multi_scan_prefixes(ctx, it, count - scanned, hits);
    for (std::size_t i = before; i < hits.size(); ++i) {
      hits[i].offset += scanned;
    }
  }
}

}  // namespace gks::hash::simd
