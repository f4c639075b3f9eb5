#pragma once

// MD5 compression core, written once as a function template over the
// word type `W` (see DESIGN.md §5.1). Instantiations:
//   - W = std::uint32_t            → the production kernel;
//   - W = Lane<std::uint32_t, N>   → N interleaved hashes (ILP);
//   - W = simgpu::TracedWord       → symbolic instruction stream for
//                                    the per-architecture lowering pass.
// The only operations used are +, &, |, ^, ~ and rotl/rotr found by
// ADL, so any word type providing those participates.

#include <array>
#include <cstdint>

#include "hash/kernel_words.h"

namespace gks::hash {

/// MD5 chaining state (A, B, C, D registers of RFC 1321).
template <class W>
struct Md5State {
  W a, b, c, d;
};

/// RFC 1321 initial state.
inline constexpr std::array<std::uint32_t, 4> kMd5Init = {
    0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u};

/// Per-step sine-derived additive constants T[i] (RFC 1321 §3.4).
inline constexpr std::array<std::uint32_t, 64> kMd5K = {
    0xd76aa478u, 0xe8c7b756u, 0x242070dbu, 0xc1bdceeeu, 0xf57c0fafu,
    0x4787c62au, 0xa8304613u, 0xfd469501u, 0x698098d8u, 0x8b44f7afu,
    0xffff5bb1u, 0x895cd7beu, 0x6b901122u, 0xfd987193u, 0xa679438eu,
    0x49b40821u, 0xf61e2562u, 0xc040b340u, 0x265e5a51u, 0xe9b6c7aau,
    0xd62f105du, 0x02441453u, 0xd8a1e681u, 0xe7d3fbc8u, 0x21e1cde6u,
    0xc33707d6u, 0xf4d50d87u, 0x455a14edu, 0xa9e3e905u, 0xfcefa3f8u,
    0x676f02d9u, 0x8d2a4c8au, 0xfffa3942u, 0x8771f681u, 0x6d9d6122u,
    0xfde5380cu, 0xa4beea44u, 0x4bdecfa9u, 0xf6bb4b60u, 0xbebfbc70u,
    0x289b7ec6u, 0xeaa127fau, 0xd4ef3085u, 0x04881d05u, 0xd9d4d039u,
    0xe6db99e5u, 0x1fa27cf8u, 0xc4ac5665u, 0xf4292244u, 0x432aff97u,
    0xab9423a7u, 0xfc93a039u, 0x655b59c3u, 0x8f0ccc92u, 0xffeff47du,
    0x85845dd1u, 0x6fa87e4fu, 0xfe2ce6e0u, 0xa3014314u, 0x4e0811a1u,
    0xf7537e82u, 0xbd3af235u, 0x2ad7d2bbu, 0xeb86d391u};

/// Per-step left-rotation amounts (RFC 1321 §3.4).
inline constexpr std::array<unsigned, 64> kMd5S = {
    7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22,
    5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20, 5, 9,  14, 20,
    4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23,
    6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21};

/// Message word index consumed by step i.
constexpr unsigned md5_msg_index(unsigned step) {
  if (step < 16) return step;
  if (step < 32) return (1 + 5 * step) % 16;
  if (step < 48) return (5 + 3 * step) % 16;
  return (7 * step) % 16;
}

/// Round function for step i applied to registers (b, c, d).
template <class W>
constexpr W md5_round_fn(unsigned step, const W& b, const W& c, const W& d) {
  if (step < 16) return (b & c) | (~b & d);
  if (step < 32) return (d & b) | (~d & c);
  if (step < 48) return b ^ c ^ d;
  return c ^ (b | ~d);
}

/// The value MD5 step i computes from registers (a, b, c, d): the new
/// b. The caller shifts the registers (a, b, c, d) -> (d, t, b, c).
template <class W, std::size_t M>
constexpr W md5_step(unsigned i, const W& a, const W& b, const W& c,
                     const W& d, const std::array<W, M>& m) {
  const W f = md5_round_fn(i, b, c, d);
  return b + rotl(a + f + m[md5_msg_index(i)] + W(kMd5K[i]), kMd5S[i]);
}

/// Executes steps [0, n_steps) of the MD5 compression function on
/// `s` given message words `m`. n_steps = 64 is a full compression
/// (without the final feed-forward addition — see md5_feed_forward).
/// Running a prefix of the steps is what the optimized crack kernel
/// does (49 forward steps against a 15-step-reverted target).
///
/// The loop must unroll completely (docs/simd.md, "Codegen"): with a
/// constant step index every rotate is one constant-amount op, the
/// round function is fixed at compile time, and zero message words
/// fold away. GCC keeps a 45-step loop rolled without the pragma.
/// `flatten` keeps every step's calls inline: once the unrolled body is
/// large, GCC otherwise calls md5_round_fn out of line, with the step
/// index a run-time argument again (it did for the array-based Lane
/// words of the -DGKS_SIMD=OFF build).
template <class W, std::size_t M>
[[gnu::flatten]] constexpr void md5_forward_steps(Md5State<W>& s,
                                                  const std::array<W, M>& m,
                                                  unsigned n_steps = 64) {
  W a = s.a, b = s.b, c = s.c, d = s.d;
#pragma GCC unroll 64
  for (unsigned i = 0; i < n_steps; ++i) {
    const W t = md5_step(i, a, b, c, d, m);
    a = d;
    d = c;
    c = b;
    b = t;
  }
  s = {a, b, c, d};
}

/// Adds the initial state into the final registers (RFC 1321 "add
/// the saved state" feed-forward). Split out so the crack kernel can
/// skip it (the target is reverted past it instead).
template <class W>
constexpr void md5_feed_forward(Md5State<W>& s, const Md5State<W>& init) {
  s.a = s.a + init.a;
  s.b = s.b + init.b;
  s.c = s.c + init.c;
  s.d = s.d + init.d;
}

/// Full single-block MD5: init → 64 steps → feed-forward.
template <class W, std::size_t M>
constexpr Md5State<W> md5_single_block(const std::array<W, M>& m) {
  Md5State<W> init{W(kMd5Init[0]), W(kMd5Init[1]), W(kMd5Init[2]),
                   W(kMd5Init[3])};
  Md5State<W> s = init;
  md5_forward_steps(s, m, 64);
  md5_feed_forward(s, init);
  return s;
}

/// Inverts MD5 steps [to_step, 63]: given the register values *after*
/// step 63 (with the feed-forward already subtracted), produces the
/// values after step `to_step - 1`. Templated over the word type like
/// the forward core — a multi-target context reverts whole batches of
/// digests in vector lanes (every target shares the fixed message
/// words, so lanes never diverge).
///
/// This is the BarsWF reversal trick of Section V-B: message word 0 is
/// not consumed by steps 49..63, so a thread that varies only the first
/// four characters can revert the target once and compare 15 steps
/// early.
template <class W>
[[gnu::flatten]] inline void md5_reverse_steps(Md5State<W>& s,
                                               const std::array<W, 16>& m,
                                               unsigned to_step) {
#pragma GCC unroll 64
  for (unsigned i = 63; i + 1 > to_step; --i) {
    // Forward step i mapped (a,b,c,d) -> (d, bnew, b, c); undo it.
    const W a_out = s.a, b_out = s.b, c_out = s.c, d_out = s.d;
    const W b = c_out;
    const W c = d_out;
    const W d = a_out;
    const W f = md5_round_fn(i, b, c, d);
    const W a = rotr(b_out - c_out, kMd5S[i]) - f - m[md5_msg_index(i)] -
                W(kMd5K[i]);
    s = {a, b, c, d};
  }
}

}  // namespace gks::hash
