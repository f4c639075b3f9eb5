// Differential sweep of the multi-target lane scanners: every width
// the host can execute must produce the exact hit list of the scalar
// multi-scan engine — same offsets, same slots, same order, same final
// iterator position — with hits planted at lane boundaries, in the
// scalar tail, and on filter false-positive words (decoy targets that
// collide with a candidate's 32-bit early-exit word but match no key).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hash/kernel_words.h"
#include "hash/md5.h"
#include "hash/multi_crack.h"
#include "hash/sha1.h"
#include "hash/simd/dispatch.h"
#include "support/rng.h"

namespace gks::hash::simd {
namespace {

struct Scenario {
  std::string charset;
  std::size_t key_len;
};

PrefixWord0Iterator iterator_for(const Scenario& sc, bool big_endian) {
  const unsigned prefix_chars =
      static_cast<unsigned>(sc.key_len < 4 ? sc.key_len : 4);
  return PrefixWord0Iterator({sc.charset.data(), sc.charset.size()},
                             prefix_chars, sc.key_len, big_endian);
}

/// The key whose word-0 prefix sits `offset` advances into the scan.
/// All keys of a scenario share the tail (multi contexts fix it).
std::string key_at_offset(const Scenario& sc, std::uint64_t offset,
                          bool big_endian) {
  auto it = iterator_for(sc, big_endian);
  for (std::uint64_t i = 0; i < offset; ++i) it.advance();
  std::string key(it.prefix().begin(), it.prefix().end());
  std::size_t fill = 0;
  while (key.size() < sc.key_len) {
    key.push_back(sc.charset[fill++ % sc.charset.size()]);
  }
  return key;
}

std::string shared_tail(const Scenario& sc, bool big_endian) {
  const std::string key = key_at_offset(sc, 0, big_endian);
  return key.size() > 4 ? key.substr(4) : std::string();
}

std::uint64_t combinations(const Scenario& sc) {
  std::uint64_t n = 1;
  const std::size_t prefix = sc.key_len < 4 ? sc.key_len : 4;
  for (std::size_t i = 0; i < prefix; ++i) n *= sc.charset.size();
  return n;
}

std::vector<Scenario> scenarios(std::uint64_t seed) {
  const std::vector<std::string> charsets = {
      "ab", "abcdef", "abcdefghijklmnop", "0123456789abcdefATZ"};
  const std::vector<std::size_t> lengths = {1, 2, 3, 4, 5, 8, 12};
  SplitMix64 rng(seed);
  std::vector<Scenario> out;
  for (int i = 0; i < 6; ++i) {
    out.push_back({charsets[rng.below(charsets.size())],
                   lengths[rng.below(lengths.size())]});
  }
  return out;
}

/// A decoy MD5 digest colliding with `key`'s early-exit word (see the
/// construction in multi_crack_test.cpp): filter and word match, but
/// confirmation fails — exercising the lane kernels' rare path without
/// producing a hit.
Md5Digest md5_decoy_for(const std::string& key) {
  const std::array<std::uint32_t, 16> m = pack_md5_block(key).words;
  const Md5Digest real = Md5::digest(key);

  const auto load = [](const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
  };
  Md5State<std::uint32_t> s{load(real.bytes.data()) - kMd5Init[0],
                            load(real.bytes.data() + 4) - kMd5Init[1],
                            load(real.bytes.data() + 8) - kMd5Init[2],
                            load(real.bytes.data() + 12) - kMd5Init[3]};
  md5_reverse_steps(s, m, 49);

  std::uint32_t a = s.a, b = s.b ^ 0x5a5a5a5au, c = s.c + 0x1234567u,
                d = s.d ^ 0xdeadbeefu;
  for (unsigned i = 49; i < 64; ++i) {
    const std::uint32_t t =
        b + rotl(a + md5_round_fn(i, b, c, d) + m[md5_msg_index(i)] + kMd5K[i],
                 kMd5S[i]);
    a = d;
    d = c;
    c = b;
    b = t;
  }
  Md5Digest decoy;
  const auto store = [](std::uint8_t* p, std::uint32_t x) {
    p[0] = static_cast<std::uint8_t>(x);
    p[1] = static_cast<std::uint8_t>(x >> 8);
    p[2] = static_cast<std::uint8_t>(x >> 16);
    p[3] = static_cast<std::uint8_t>(x >> 24);
  };
  store(decoy.bytes.data(), a + kMd5Init[0]);
  store(decoy.bytes.data() + 4, b + kMd5Init[1]);
  store(decoy.bytes.data() + 8, c + kMd5Init[2]);
  store(decoy.bytes.data() + 12, d + kMd5Init[3]);
  return decoy;
}

/// Gate geometries the differential sweeps run under: the default
/// direct bit array, the gate fully disabled (slot lookup does all
/// filtering), and the Bloom geometry forced on regardless of batch
/// size. Hit lists must be bit-identical across all three.
std::vector<std::pair<std::string, TargetIndex::Config>> gate_configs() {
  TargetIndex::Config off;
  off.gate = false;
  TargetIndex::Config bloom;
  bloom.max_direct_bits = 1;
  return {{"gate=direct", TargetIndex::Config()},
          {"gate=off", off},
          {"gate=bloom", bloom}};
}

template <class Ctx, class ScalarFn, class LaneFn>
void expect_identical_hits(const Ctx& ctx, const Scenario& sc,
                           bool big_endian, std::uint64_t count,
                           const ScalarFn& scalar_scan,
                           const LaneFn& lane_scan,
                           const std::string& label) {
  auto scalar_it = iterator_for(sc, big_endian);
  auto lane_it = iterator_for(sc, big_endian);
  std::vector<MultiHit> ref, got;
  scalar_scan(ctx, scalar_it, count, ref);
  lane_scan(ctx, lane_it, count, got);
  EXPECT_EQ(ref, got) << label;
  // Both engines leave the iterator past the scanned range.
  EXPECT_EQ(scalar_it.word0(), lane_it.word0()) << label;
}

TEST(SimdMultiScanDifferential, Md5EveryWidthMatchesScalar) {
  for (const ScanKernels& k : available_kernels()) {
    const std::uint64_t n = k.width;
    for (const Scenario& sc : scenarios(n * 7919)) {
      const std::uint64_t combos = combinations(sc);
      const std::uint64_t count =
          std::min<std::uint64_t>(combos, 3 * n + 5);  // forces a scalar tail

      // Targets at the lane boundaries and in the tail, one duplicated,
      // plus a filter false-positive decoy for the first candidate.
      std::vector<Md5Digest> targets;
      for (const std::uint64_t plant : {std::uint64_t{0}, n - 1, n, n + 1,
                                        3 * n + 2}) {
        if (plant >= count) continue;
        targets.push_back(
            Md5::digest(key_at_offset(sc, plant, false)));
      }
      targets.push_back(targets.front());  // duplicate digest
      targets.push_back(md5_decoy_for(key_at_offset(sc, 0, false)));

      for (const auto& [gate, cfg] : gate_configs()) {
        const Md5MultiContext ctx(targets, shared_tail(sc, false), sc.key_len,
                                  cfg);
        expect_identical_hits(
            ctx, sc, false, count,
            [](const Md5MultiContext& c, PrefixWord0Iterator& it,
               std::uint64_t m, std::vector<MultiHit>& h) {
              md5_multi_scan_prefixes(c, it, m, h);
            },
            [&](const Md5MultiContext& c, PrefixWord0Iterator& it,
                std::uint64_t m, std::vector<MultiHit>& h) {
              k.md5_multi_scan(c, it, m, h);
            },
            "md5 w" + std::to_string(n) + " cs=" + sc.charset + " len=" +
                std::to_string(sc.key_len) + " " + gate);
      }
    }
  }
}

TEST(SimdMultiScanDifferential, Sha1EveryWidthMatchesScalar) {
  for (const ScanKernels& k : available_kernels()) {
    const std::uint64_t n = k.width;
    for (const Scenario& sc : scenarios(n * 104729)) {
      const std::uint64_t combos = combinations(sc);
      const std::uint64_t count = std::min<std::uint64_t>(combos, 3 * n + 5);

      std::vector<Sha1Digest> targets;
      for (const std::uint64_t plant : {std::uint64_t{0}, n - 1, n, n + 1,
                                        3 * n + 2}) {
        if (plant >= count) continue;
        targets.push_back(Sha1::digest(key_at_offset(sc, plant, true)));
      }
      targets.push_back(targets.front());
      // SHA1 decoy: perturb the leading digest bytes, keep bytes 16..19
      // (the early-exit word) — filter hit, failed confirmation.
      Sha1Digest decoy = targets.front();
      decoy.bytes[0] ^= 0x5a;
      targets.push_back(decoy);

      for (const auto& [gate, cfg] : gate_configs()) {
        const Sha1MultiContext ctx(targets, shared_tail(sc, true), sc.key_len,
                                   cfg);
        expect_identical_hits(
            ctx, sc, true, count,
            [](const Sha1MultiContext& c, PrefixWord0Iterator& it,
               std::uint64_t m, std::vector<MultiHit>& h) {
              sha1_multi_scan_prefixes(c, it, m, h);
            },
            [&](const Sha1MultiContext& c, PrefixWord0Iterator& it,
                std::uint64_t m, std::vector<MultiHit>& h) {
              k.sha1_multi_scan(c, it, m, h);
            },
            "sha1 w" + std::to_string(n) + " cs=" + sc.charset + " len=" +
                std::to_string(sc.key_len) + " " + gate);
      }
    }
  }
}

TEST(SimdMultiScanDifferential, TwoHitsInOnePassOnePerHalf) {
  // A pass runs two vectors of n lanes: keys at offsets 1 and n+1 land
  // one in each vector of the first pass. Both must be reported,
  // offset-ascending, each under its own slot; the targets are listed
  // upper key first so slot order and offset order differ.
  const Scenario sc{"abcdefghijklmnopqrstuvwxyz", 6};
  for (const ScanKernels& k : available_kernels()) {
    const std::uint64_t n = k.width / 2;
    const std::uint64_t count = 2 * k.width + 3;
    const std::vector<MultiHit> want = {{1, 1}, {n + 1, 0}};
    const std::string label = std::to_string(k.width);

    const Md5MultiContext md5_ctx(
        std::vector<Md5Digest>{Md5::digest(key_at_offset(sc, n + 1, false)),
                               Md5::digest(key_at_offset(sc, 1, false))},
        shared_tail(sc, false), sc.key_len);
    auto md5_it = iterator_for(sc, false);
    std::vector<MultiHit> md5_hits;
    k.md5_multi_scan(md5_ctx, md5_it, count, md5_hits);
    EXPECT_EQ(md5_hits, want) << "md5 w" << label;
    expect_identical_hits(
        md5_ctx, sc, false, count,
        [](const Md5MultiContext& c, PrefixWord0Iterator& it, std::uint64_t m,
           std::vector<MultiHit>& h) { md5_multi_scan_prefixes(c, it, m, h); },
        [&](const Md5MultiContext& c, PrefixWord0Iterator& it,
            std::uint64_t m,
            std::vector<MultiHit>& h) { k.md5_multi_scan(c, it, m, h); },
        "md5 w" + label);

    const Sha1MultiContext sha1_ctx(
        std::vector<Sha1Digest>{Sha1::digest(key_at_offset(sc, n + 1, true)),
                                Sha1::digest(key_at_offset(sc, 1, true))},
        shared_tail(sc, true), sc.key_len);
    auto sha1_it = iterator_for(sc, true);
    std::vector<MultiHit> sha1_hits;
    k.sha1_multi_scan(sha1_ctx, sha1_it, count, sha1_hits);
    EXPECT_EQ(sha1_hits, want) << "sha1 w" << label;
    expect_identical_hits(
        sha1_ctx, sc, true, count,
        [](const Sha1MultiContext& c, PrefixWord0Iterator& it,
           std::uint64_t m,
           std::vector<MultiHit>& h) { sha1_multi_scan_prefixes(c, it, m, h); },
        [&](const Sha1MultiContext& c, PrefixWord0Iterator& it,
            std::uint64_t m,
            std::vector<MultiHit>& h) { k.sha1_multi_scan(c, it, m, h); },
        "sha1 w" + label);
  }
}

TEST(SimdMultiScanDifferential, FullSpaceSweepEveryWidth) {
  // Exhaustive sweep of a small space with every candidate planted as a
  // target: all widths must report the full hit list in order.
  const Scenario sc{"abcd", 3};
  const std::uint64_t combos = combinations(sc);
  std::vector<Md5Digest> targets;
  for (std::uint64_t i = 0; i < combos; ++i) {
    targets.push_back(Md5::digest(key_at_offset(sc, i, false)));
  }
  const Md5MultiContext ctx(targets, shared_tail(sc, false), sc.key_len);

  auto scalar_it = iterator_for(sc, false);
  std::vector<MultiHit> ref;
  md5_multi_scan_prefixes(ctx, scalar_it, combos, ref);
  ASSERT_EQ(ref.size(), combos);

  for (const ScanKernels& k : available_kernels()) {
    auto it = iterator_for(sc, false);
    std::vector<MultiHit> got;
    k.md5_multi_scan(ctx, it, combos, got);
    EXPECT_EQ(ref, got) << "w" << k.width;
  }
}

TEST(SimdMultiScanDifferential, TenThousandTargetScan) {
  // A big-batch scan: 10000 targets planted across the first 10000
  // candidates of an 8-char space. Every width must find all of them
  // (offset i, slot i) while scanning at O(1) per candidate.
  const Scenario sc{"abcdefghij", 8};
  const std::uint64_t kTargets = combinations(sc);  // 10^4 prefixes
  const std::string tail = shared_tail(sc, false);
  std::vector<Md5Digest> targets;
  targets.reserve(kTargets);
  auto plant_it = iterator_for(sc, false);
  for (std::uint64_t i = 0; i < kTargets; ++i) {
    const std::string key =
        std::string(plant_it.prefix().begin(), plant_it.prefix().end()) + tail;
    targets.push_back(Md5::digest(key));
    plant_it.advance();
  }
  const Md5MultiContext ctx(targets, tail, sc.key_len);

  for (const ScanKernels& k : available_kernels()) {
    auto it = iterator_for(sc, false);
    std::vector<MultiHit> got;
    k.md5_multi_scan(ctx, it, kTargets, got);
    ASSERT_EQ(got.size(), kTargets) << "w" << k.width;
    for (std::uint64_t i = 0; i < kTargets; ++i) {
      ASSERT_EQ(got[i], (MultiHit{i, static_cast<std::uint32_t>(i)}));
    }
  }
}

}  // namespace
}  // namespace gks::hash::simd
