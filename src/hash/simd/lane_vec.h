#pragma once

// LaneVec<N>: N independent 32-bit words in one hardware vector — the
// explicit-SIMD sibling of Lane<std::uint32_t, N> (lane.h). Where Lane
// leaves vectorization to the optimizer, LaneVec is backed by GCC/Clang
// vector extensions (`__attribute__((vector_size)))`, so every + / ^ /
// rotl in the templated hash cores lowers to one vector instruction per
// N lanes when the translation unit is compiled for a wide enough ISA
// (see src/hash/CMakeLists.txt for the per-width target flags and
// simd/dispatch.h for the runtime selection).
//
// When the build opts out (-DGKS_SIMD=OFF) or the compiler has no
// vector extensions, LaneVec falls back to the portable array-based
// Lane — identical semantics, scalar codegen.

#include <cstddef>
#include <cstdint>

#include "hash/lane.h"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#if defined(GKS_SIMD_PORTABLE) || !(defined(__GNUC__) || defined(__clang__))
#define GKS_SIMD_HAVE_VECTOR_EXT 0
#else
#define GKS_SIMD_HAVE_VECTOR_EXT 1
#endif

namespace gks::hash::simd {

#if GKS_SIMD_HAVE_VECTOR_EXT

template <std::size_t N>
struct LaneVec {
  typedef std::uint32_t Vec
      __attribute__((vector_size(N * sizeof(std::uint32_t))));

  Vec v;

  LaneVec() : v{} {}

  /// Broadcast constructor (constants are shared across lanes).
  explicit LaneVec(std::uint32_t scalar) : v(Vec{} + scalar) {}

  friend LaneVec operator+(LaneVec a, const LaneVec& b) {
    a.v += b.v;
    return a;
  }
  friend LaneVec operator-(LaneVec a, const LaneVec& b) {
    a.v -= b.v;
    return a;
  }
  friend LaneVec operator&(LaneVec a, const LaneVec& b) {
    a.v &= b.v;
    return a;
  }
  friend LaneVec operator|(LaneVec a, const LaneVec& b) {
    a.v |= b.v;
    return a;
  }
  friend LaneVec operator^(LaneVec a, const LaneVec& b) {
    a.v ^= b.v;
    return a;
  }
  friend LaneVec operator~(LaneVec a) {
    a.v = ~a.v;
    return a;
  }
};

/// Elementwise rotate-left (ADL customization point used by kernels).
template <std::size_t N>
inline LaneVec<N> rotl(LaneVec<N> a, unsigned n) {
  a.v = (a.v << n) | (a.v >> (32u - n));
  return a;
}

/// Elementwise rotate-right.
template <std::size_t N>
inline LaneVec<N> rotr(LaneVec<N> a, unsigned n) {
  a.v = (a.v >> n) | (a.v << (32u - n));
  return a;
}

/// Elementwise logical shift-right.
template <std::size_t N>
inline LaneVec<N> shr(LaneVec<N> a, unsigned n) {
  a.v >>= n;
  return a;
}

template <std::size_t N>
inline std::uint32_t lane_get(const LaneVec<N>& a, std::size_t i) {
  return a.v[i];
}

template <std::size_t N>
inline void lane_set(LaneVec<N>& a, std::size_t i, std::uint32_t x) {
  a.v[i] = x;
}

/// Spill all N lanes to out[0..N): one vector store. Reading lanes one
/// by one with lane_get costs a cross-lane extract each — cheap for the
/// low 128 bits, an extract-then-extract chain for the upper lanes of
/// wide vectors — so per-block spills on the hot path must use this.
template <std::size_t N>
inline void lane_store(const LaneVec<N>& a, std::uint32_t* out) {
  __builtin_memcpy(out, &a.v, N * sizeof(std::uint32_t));
}

/// Fill all N lanes from in[0..N): one vector load, where N lane_set
/// calls would insert lane by lane.
template <std::size_t N>
inline LaneVec<N> lane_load(const std::uint32_t* in) {
  LaneVec<N> a;
  __builtin_memcpy(&a.v, in, N * sizeof(std::uint32_t));
  return a;
}

/// Does any lane equal `s`? One vector compare. With AVX-512 (F at 16
/// lanes, VL at 8) the compare writes a mask register and one kortest
/// reads it. Elsewhere the compare's lanes are ORed together; GCC 12
/// lowers that OR to a chain of lane extracts, not to one test.
template <std::size_t N>
inline bool any_lane_eq(const LaneVec<N>& a, std::uint32_t s) {
  using Vec = typename LaneVec<N>::Vec;
  const Vec splat = Vec{} + s;
#if defined(__AVX512F__)
  if constexpr (N == 16) {
    return _mm512_cmpeq_epi32_mask(reinterpret_cast<__m512i>(a.v),
                                   reinterpret_cast<__m512i>(splat)) != 0;
  }
#endif
#if defined(__AVX512VL__)
  if constexpr (N == 8) {
    return _mm256_cmpeq_epi32_mask(reinterpret_cast<__m256i>(a.v),
                                   reinterpret_cast<__m256i>(splat)) != 0;
  }
#endif
  const auto eq = a.v == splat;  // each lane all-ones or all-zeros
  std::int32_t any = 0;
  for (std::size_t i = 0; i < N; ++i) any |= eq[i];
  return any != 0;
}

#else  // portable fallback: the array-based Lane with the same surface

template <std::size_t N>
using LaneVec = Lane<std::uint32_t, N>;

template <std::size_t N>
inline std::uint32_t lane_get(const LaneVec<N>& a, std::size_t i) {
  return a[i];
}

template <std::size_t N>
inline void lane_set(LaneVec<N>& a, std::size_t i, std::uint32_t x) {
  a[i] = x;
}

template <std::size_t N>
inline void lane_store(const LaneVec<N>& a, std::uint32_t* out) {
  for (std::size_t i = 0; i < N; ++i) out[i] = a[i];
}

template <std::size_t N>
inline LaneVec<N> lane_load(const std::uint32_t* in) {
  LaneVec<N> a;
  for (std::size_t i = 0; i < N; ++i) a[i] = in[i];
  return a;
}

template <std::size_t N>
inline bool any_lane_eq(const LaneVec<N>& a, std::uint32_t s) {
  for (std::size_t i = 0; i < N; ++i) {
    if (a[i] == s) return true;
  }
  return false;
}

#endif  // GKS_SIMD_HAVE_VECTOR_EXT

/// LanePair<N>: two independent LaneVec<N> blocks in one instruction
/// stream, lanes 0..N-1 in `lo` and N..2N-1 in `hi`: the paper's two
/// strings per thread (Section V-B). A second step chain fills the issue
/// slots one chain leaves idle (docs/simd.md, "Codegen").
template <std::size_t N>
struct LanePair {
  static constexpr std::size_t kLanes = 2 * N;
  using Ref = const LanePair&;
  LaneVec<N> lo, hi;

  LanePair() = default;
  LanePair(const LaneVec<N>& l, const LaneVec<N>& h) : lo(l), hi(h) {}
  explicit LanePair(std::uint32_t scalar) : lo(scalar), hi(scalar) {}

  friend LanePair operator+(Ref a, Ref b) { return {a.lo + b.lo, a.hi + b.hi}; }
  friend LanePair operator-(Ref a, Ref b) { return {a.lo - b.lo, a.hi - b.hi}; }
  friend LanePair operator&(Ref a, Ref b) { return {a.lo & b.lo, a.hi & b.hi}; }
  friend LanePair operator|(Ref a, Ref b) { return {a.lo | b.lo, a.hi | b.hi}; }
  friend LanePair operator^(Ref a, Ref b) { return {a.lo ^ b.lo, a.hi ^ b.hi}; }
  friend LanePair operator~(Ref a) { return {~a.lo, ~a.hi}; }
  friend LanePair rotl(Ref a, unsigned n) {
    return {rotl(a.lo, n), rotl(a.hi, n)};
  }
  friend LanePair rotr(Ref a, unsigned n) {
    return {rotr(a.lo, n), rotr(a.hi, n)};
  }
  friend LanePair shr(Ref a, unsigned n) {
    return {shr(a.lo, n), shr(a.hi, n)};
  }
};

template <std::size_t N>
inline std::uint32_t lane_get(const LanePair<N>& a, std::size_t i) {
  return i < N ? lane_get(a.lo, i) : lane_get(a.hi, i - N);
}

/// Spill all 2N lanes to out[0..2N): two vector stores.
template <std::size_t N>
inline void lane_store(const LanePair<N>& a, std::uint32_t* out) {
  lane_store(a.lo, out);
  lane_store(a.hi, out + N);
}

/// Fill all 2N lanes from in[0..2N): two vector loads.
template <std::size_t N>
inline LanePair<N> lane_pair_load(const std::uint32_t* in) {
  return {lane_load<N>(in), lane_load<N>(in + N)};
}

/// Does any of the 2N lanes equal `s`? Both halves, no branch between.
template <std::size_t N>
inline bool any_lane_eq(const LanePair<N>& a, std::uint32_t s) {
  return any_lane_eq(a.lo, s) | any_lane_eq(a.hi, s);
}

}  // namespace gks::hash::simd
