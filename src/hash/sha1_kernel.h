#pragma once

// SHA1 compression core as a function template over the word type,
// mirroring md5_kernel.h (see that header for the instantiation map).

#include <array>
#include <cstdint>

#include "hash/kernel_words.h"

namespace gks::hash {

/// SHA1 chaining state (H0..H4 of RFC 3174).
template <class W>
struct Sha1State {
  W a, b, c, d, e;
};

/// RFC 3174 initial state.
inline constexpr std::array<std::uint32_t, 5> kSha1Init = {
    0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u, 0xc3d2e1f0u};

/// Per-round additive constants.
inline constexpr std::array<std::uint32_t, 4> kSha1K = {
    0x5a827999u, 0x6ed9eba1u, 0x8f1bbcdcu, 0xca62c1d6u};

/// Round function for step t applied to registers (b, c, d).
template <class W>
constexpr W sha1_round_fn(unsigned t, const W& b, const W& c, const W& d) {
  if (t < 20) return (b & c) | (~b & d);
  if (t < 40) return b ^ c ^ d;
  if (t < 60) return (b & c) | (b & d) | (c & d);
  return b ^ c ^ d;
}

/// Expanded message word W[t] computed over a 16-entry ring holding the
/// most recent 16 schedule words (RFC 3174 method 2, constant memory).
template <class W>
constexpr W sha1_expand(std::array<W, 16>& ring, unsigned t) {
  const W w = rotl(ring[(t - 3) & 15] ^ ring[(t - 8) & 15] ^
                       ring[(t - 14) & 15] ^ ring[(t - 16) & 15],
                   1);
  ring[t & 15] = w;
  return w;
}

/// One SHA1 step t on `s` with schedule word `wt`.
template <class W>
constexpr void sha1_step(Sha1State<W>& s, unsigned t, const W& wt) {
  const W f = sha1_round_fn(t, s.b, s.c, s.d);
  const W temp = rotl(s.a, 5) + f + s.e + wt + W(kSha1K[t / 20]);
  s.e = s.d;
  s.d = s.c;
  s.c = rotl(s.b, 30);
  s.b = s.a;
  s.a = temp;
}

/// Executes steps [0, n_steps) of SHA1 compression on `s`, expanding
/// the schedule in place: `ring` holds the message block on entry and
/// the 16 most recent schedule words on return, which is what a caller
/// that stops early needs to finish the remaining steps. No
/// feed-forward (see sha1_feed_forward).
///
/// The loop must unroll completely (docs/simd.md, "Codegen"): with a
/// constant step index every rotate is one constant-amount op and the
/// round function and constant are fixed at compile time. `flatten`
/// keeps every step's calls inline, as in md5_forward_steps.
template <class W>
[[gnu::flatten]] constexpr void sha1_ring_steps(Sha1State<W>& s,
                                                std::array<W, 16>& ring,
                                                unsigned n_steps) {
#pragma GCC unroll 80
  for (unsigned t = 0; t < n_steps; ++t) {
    sha1_step(s, t, t < 16 ? ring[t] : sha1_expand(ring, t));
  }
}

/// sha1_ring_steps on a private copy of the message block, so `m`
/// itself is not modified.
template <class W>
constexpr void sha1_forward_steps(Sha1State<W>& s, const std::array<W, 16>& m,
                                  unsigned n_steps = 80) {
  std::array<W, 16> ring = m;
  sha1_ring_steps(s, ring, n_steps);
}

/// RFC 3174 feed-forward addition of the initial state.
template <class W>
constexpr void sha1_feed_forward(Sha1State<W>& s, const Sha1State<W>& init) {
  s.a = s.a + init.a;
  s.b = s.b + init.b;
  s.c = s.c + init.c;
  s.d = s.d + init.d;
  s.e = s.e + init.e;
}

/// Full single-block SHA1: init → 80 steps → feed-forward.
template <class W>
constexpr Sha1State<W> sha1_single_block(const std::array<W, 16>& m) {
  Sha1State<W> init{W(kSha1Init[0]), W(kSha1Init[1]), W(kSha1Init[2]),
                    W(kSha1Init[3]), W(kSha1Init[4])};
  Sha1State<W> s = init;
  sha1_forward_steps(s, m, 80);
  sha1_feed_forward(s, init);
  return s;
}

}  // namespace gks::hash
