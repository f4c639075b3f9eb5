#include "core/nonce_search.h"

#include <atomic>

#include "core/parallel_sweep.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/stopwatch.h"

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

MiningResult mine_nonce(const BlockHeader& header, unsigned target_zero_bits,
                        std::uint64_t begin, std::uint64_t end,
                        std::size_t threads) {
  GKS_REQUIRE(begin <= end, "invalid nonce range");
  GKS_REQUIRE(end <= (1ull << 32), "nonces are 32-bit values");
  GKS_REQUIRE(target_zero_bits <= 256, "target exceeds digest size");

  MiningResult result;
  Stopwatch timer;
  if (begin == end) return result;

  // Midstate of the first 64 header bytes — shared by every nonce.
  hash::Sha256 prefix;
  prefix.update(
      std::span<const std::uint8_t>(header.bytes.data(), 64));
  const auto midstate = prefix.midstate();

  ThreadPool pool(threads);
  std::atomic<std::uint64_t> best_nonce{~0ull};
  std::atomic<std::uint64_t> tested{0};

  // Claims are ascending, and a claim stops at the first satisfying
  // nonce or once it passes the best one found so far, so every nonce
  // below the final best is tested and the result does not depend on
  // the thread count. Once a hit is known the sweep stops: every claim
  // not yet started lies above it.
  parallel_sweep(pool, keyspace::Interval(u128(begin), u128(end)),
                 [&](std::size_t, const keyspace::Interval& ids) {
    BlockHeader candidate = header;
    const std::span<const std::uint8_t> tail(candidate.bytes.data() + 64, 16);
    std::uint64_t local_tested = 0;
    for (std::uint64_t nonce = ids.begin.low64(); nonce < ids.end.low64();
         ++nonce) {
      if (best_nonce.load(std::memory_order_relaxed) < nonce) break;
      candidate.set_nonce(static_cast<std::uint32_t>(nonce));
      hash::Sha256 h;
      h.restore(midstate, 64);
      h.update(tail);
      const auto inner = h.finalize();
      const auto outer =
          hash::Sha256::digest(std::span<const std::uint8_t>(inner.bytes));
      ++local_tested;
      if (leading_zero_bits(outer) >= target_zero_bits) {
        std::uint64_t expected = best_nonce.load();
        while (nonce < expected &&
               !best_nonce.compare_exchange_weak(expected, nonce)) {
        }
        break;
      }
    }
    tested.fetch_add(local_tested);
    return best_nonce.load(std::memory_order_relaxed) == ~0ull;
  });

  result.tested = tested.load();
  result.elapsed_s = timer.seconds();
  if (best_nonce.load() != ~0ull) {
    result.nonce = static_cast<std::uint32_t>(best_nonce.load());
  }
  return result;
}

}  // namespace gks::core
