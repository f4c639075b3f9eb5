#include "hash/target_index.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "obs/metrics.h"

namespace gks::hash {
namespace {

/// Smallest power of two >= v.
std::uint64_t next_pow2(std::uint64_t v) {
  if (v <= 1) return 1;
  return std::uint64_t{1} << (64 - std::countl_zero(v - 1));
}

/// Bits per key for the blocked Bloom geometry (k=2 bits in one 64-bit
/// block), solved from p = (1 - e^(-2/b))^2  =>  b = -2/ln(1 - sqrt(p)).
/// fpr 1/64 gives ~15.5 bits/key — a 1M-target gate in under 2 MiB,
/// where the direct array would want 8 MiB.
double bloom_bits_per_key() {
  return -2.0 / std::log(1.0 - std::sqrt(TargetIndex::kGateFpr));
}

/// Stable LSD radix sort of packed (word << 32 | slot) entries by the
/// word: four 8-bit counting-sort passes over the high half. Stability
/// keeps equal words' slots ascending, which matches()'s contract
/// relies on. ~4n moves, versus std::sort's n·log n branchy compares —
/// the difference is what a large-target sweep pays per tail block,
/// once per context build.
void radix_sort_by_word(std::vector<std::uint64_t>& v) {
  std::vector<std::uint64_t> tmp(v.size());
  for (unsigned pass = 0; pass < 4; ++pass) {
    const unsigned shift = 32 + pass * 8;
    std::array<std::size_t, 257> count{};
    for (const std::uint64_t x : v) ++count[((x >> shift) & 0xff) + 1];
    for (std::size_t i = 0; i < 256; ++i) count[i + 1] += count[i];
    for (const std::uint64_t x : v) tmp[count[(x >> shift) & 0xff]++] = x;
    v.swap(tmp);
  }
}

}  // namespace

TargetIndex::TargetIndex(std::span<const std::uint32_t> words)
    : TargetIndex(words, Config()) {}

TargetIndex::TargetIndex(std::span<const std::uint32_t> words,
                         const Config& config,
                         std::span<const std::uint32_t> retired)
    : config_(config) {
  // Sort (word, slot) pairs packed into one uint64 so equal words keep
  // their slots ascending without a custom comparator. Large batches
  // take the radix path — comparison sorting is the dominant cost of a
  // big context build otherwise; small ones stay with std::sort, which
  // wins below the histogram overhead.
  std::vector<std::uint64_t> packed;
  packed.reserve(words.size());
  auto next_retired = retired.begin();
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (next_retired != retired.end() && *next_retired == i) {
      ++next_retired;
      continue;
    }
    packed.push_back(static_cast<std::uint64_t>(words[i]) << 32 | i);
  }
  const std::size_t n = packed.size();
  if (n >= 4096) {
    radix_sort_by_word(packed);
  } else {
    std::sort(packed.begin(), packed.end());
  }
  words_.reserve(n);
  slots_.reserve(n);
  for (const std::uint64_t p : packed) {
    words_.push_back(static_cast<std::uint32_t>(p >> 32));
    slots_.push_back(static_cast<std::uint32_t>(p));
  }
  build_gate();
  build_offsets();
}

void TargetIndex::build_gate() {
  const std::size_t n = words_.size();
  if (!config_.gate) {
    // Disabled gate: one all-ones direct block, so may_match() stays
    // the same load-and-test and simply always passes — no extra mode
    // branch in the hot loop.
    direct_ = true;
    bucket_mask_ = 63;
    bits_.assign(1, ~std::uint64_t{0});
    return;
  }
  // Direct mode spends 1/fpr bits per target: a uniform foreign word
  // then lands on a set bit with probability ~fpr. The 64-bit floor
  // keeps the tiny-batch filter one whole word.
  const std::uint64_t direct_bits = next_pow2(std::max<std::uint64_t>(
      64, static_cast<std::uint64_t>(
              std::ceil(static_cast<double>(n) / kGateFpr))));
  if (direct_bits <= config_.max_direct_bits) {
    direct_ = true;
    bucket_mask_ = static_cast<std::uint32_t>(direct_bits - 1);
    bits_.assign(static_cast<std::size_t>(direct_bits >> 6), 0);
    for (const std::uint32_t w : words_) {
      const std::uint32_t b = w & bucket_mask_;
      bits_[b >> 6] |= std::uint64_t{1} << (b & 63);
    }
    return;
  }
  direct_ = false;
  auto blocks = static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(n) * bloom_bits_per_key() / 64.0));
  blocks = std::clamp<std::uint64_t>(blocks, 1, kMaxFilterBytes / 8);
  nblocks_ = static_cast<std::uint32_t>(blocks);
  bits_.assign(nblocks_, 0);
  for (const std::uint32_t w : words_) {
    const std::uint64_t h = mix_word(w);
    const auto block = static_cast<std::uint32_t>(
        (static_cast<std::uint32_t>(h) * std::uint64_t{nblocks_}) >> 32);
    bits_[block] |= (std::uint64_t{1} << ((h >> 32) & 63)) |
                    (std::uint64_t{1} << ((h >> 38) & 63));
  }
}

void TargetIndex::build_offsets() {
  // ~1 entry per bucket in expectation, capped at 4M buckets (16 MiB of
  // offsets); past the cap a bucket holds n/2^22 entries and the
  // in-bucket lower_bound stays a handful of in-cache probes.
  const auto buckets = static_cast<std::uint32_t>(std::clamp<std::uint64_t>(
      next_pow2(words_.size()), 2, std::uint64_t{1} << 22));
  offset_shift_ = 32u - static_cast<unsigned>(std::countr_zero(buckets));
  offsets_.assign(std::size_t{buckets} + 1, 0);
  for (const std::uint32_t w : words_) ++offsets_[(w >> offset_shift_) + 1];
  for (std::size_t b = 1; b < offsets_.size(); ++b) {
    offsets_[b] += offsets_[b - 1];
  }
}

std::span<const std::uint32_t> TargetIndex::matches(std::uint32_t word) const {
  // Bucket range, then a short lower_bound and a linear walk over the
  // (rare, short) run of equal words. This is the whole cost of a gate
  // false positive.
  const std::uint32_t lo = offsets_[word >> offset_shift_];
  const std::uint32_t hi = offsets_[(word >> offset_shift_) + 1];
  const auto first =
      std::lower_bound(words_.begin() + lo, words_.begin() + hi, word);
  auto last = first;
  while (last != words_.begin() + hi && *last == word) ++last;
  const auto begin = static_cast<std::size_t>(first - words_.begin());
  const auto count = static_cast<std::size_t>(last - first);
  if (config_.stats != nullptr) {
    config_.stats->gate_hits.fetch_add(1, std::memory_order_relaxed);
    if (count == 0) {
      config_.stats->false_positives.fetch_add(1, std::memory_order_relaxed);
    }
    // Global telemetry rides the same gate-frequency path (never per
    // candidate); an index built without a stats sink stays out of
    // the process counters too.
    if (obs::enabled()) {
      static obs::Counter& hits =
          obs::Registry::global().counter("gks_kernel_gate_hits_total");
      static obs::Counter& fps = obs::Registry::global().counter(
          "gks_kernel_gate_false_positives_total");
      hits.add(1);
      if (count == 0) fps.add(1);
    }
  }
  return {slots_.data() + begin, count};
}

const char* TargetIndex::filter_kind() const {
  if (!config_.gate) return "off";
  return direct_ ? "direct" : "bloom";
}

}  // namespace gks::hash
