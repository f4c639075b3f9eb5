#include "core/nonce_search.h"

#include <atomic>

#include "core/parallel_sweep.h"
#include "support/error.h"
#include "support/rng.h"

namespace gks::core {

BlockHeader BlockHeader::sample(std::uint64_t seed) {
  BlockHeader h;
  SplitMix64 rng(seed);
  for (auto& b : h.bytes) b = static_cast<std::uint8_t>(rng());
  h.set_nonce(0);
  return h;
}

hash::Sha256Digest block_pow_hash(const BlockHeader& header) {
  const auto inner = hash::Sha256::digest(
      std::span<const std::uint8_t>(header.bytes.data(), header.bytes.size()));
  return hash::Sha256::digest(std::span<const std::uint8_t>(inner.bytes));
}

unsigned leading_zero_bits(const hash::Sha256Digest& digest) {
  unsigned zeros = 0;
  for (std::uint8_t byte : digest.bytes) {
    if (byte == 0) {
      zeros += 8;
      continue;
    }
    for (int bit = 7; bit >= 0; --bit) {
      if ((byte >> bit) & 1) return zeros;
      ++zeros;
    }
  }
  return zeros;
}

NonceTester::NonceTester(const BlockHeader& header,
                         unsigned target_zero_bits)
    : header_(header), target_zero_bits_(target_zero_bits) {
  GKS_REQUIRE(target_zero_bits <= 256, "target exceeds digest size");
  hash::Sha256 prefix;
  prefix.update(std::span<const std::uint8_t>(header.bytes.data(), 64));
  midstate_ = prefix.midstate();
}

std::optional<std::uint64_t> NonceTester::first_hit(
    std::uint64_t begin, std::uint64_t end,
    const std::atomic<std::uint64_t>* bound, std::uint64_t& tested) const {
  BlockHeader candidate = header_;
  const std::span<const std::uint8_t> tail(candidate.bytes.data() + 64, 16);
  for (std::uint64_t nonce = begin; nonce < end; ++nonce) {
    if (bound && bound->load(std::memory_order_relaxed) < nonce) break;
    candidate.set_nonce(static_cast<std::uint32_t>(nonce));
    hash::Sha256 h;
    h.restore(midstate_, 64);
    h.update(tail);
    const auto inner = h.finalize();
    const auto outer =
        hash::Sha256::digest(std::span<const std::uint8_t>(inner.bytes));
    ++tested;
    if (leading_zero_bits(outer) >= target_zero_bits_) return nonce;
  }
  return std::nullopt;
}

MiningResult mine_nonce(const BlockHeader& header, unsigned target_zero_bits,
                        std::uint64_t begin, std::uint64_t end,
                        std::size_t threads) {
  GKS_REQUIRE(begin <= end, "invalid nonce range");
  GKS_REQUIRE(end <= (1ull << 32), "nonces are 32-bit values");
  const NonceTester tester(header, target_zero_bits);
  if (begin == end) return {};

  ThreadPool pool(threads);
  std::atomic<std::uint64_t> best{~0ull};
  // Claims are ascending, and a claim stops at the first satisfying
  // nonce or once it passes the best one found so far, so every nonce
  // below the final best is tested and the result does not depend on
  // the thread count. Once a hit is known the sweep stops: every claim
  // not yet started lies above it.
  const dispatch::ScanOutcome out = parallel_scan(
      pool, keyspace::Interval(u128(begin), u128(end)),
      [&](const keyspace::Interval& ids) {
        dispatch::ScanOutcome claim;
        std::uint64_t tested = 0;
        if (const auto nonce = tester.first_hit(
                ids.begin.low64(), ids.end.low64(), &best, tested)) {
          claim.found.push_back({u128(*nonce), {}});
          std::uint64_t expected = best.load();
          while (*nonce < expected &&
                 !best.compare_exchange_weak(expected, *nonce)) {
          }
        }
        claim.tested = u128(tested);
        return claim;
      },
      [](const dispatch::ScanOutcome& sofar) { return sofar.found.empty(); });

  MiningResult result;
  result.tested = out.tested.to_u64();
  result.elapsed_s = out.busy_virtual_s;
  if (!out.found.empty()) {
    result.nonce = static_cast<std::uint32_t>(out.found.front().id.to_u64());
  }
  return result;
}

}  // namespace gks::core
