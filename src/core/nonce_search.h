#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>

#include "hash/sha256.h"

namespace gks::core {

/// An 80-byte block header in the Bitcoin wire layout: the nonce field
/// occupies bytes 76..79. Only the pieces the search needs are modeled
/// (version/prev-hash/merkle-root/time/bits are opaque bytes here).
struct BlockHeader {
  std::array<std::uint8_t, 80> bytes{};

  void set_nonce(std::uint32_t nonce) {
    bytes[76] = static_cast<std::uint8_t>(nonce);
    bytes[77] = static_cast<std::uint8_t>(nonce >> 8);
    bytes[78] = static_cast<std::uint8_t>(nonce >> 16);
    bytes[79] = static_cast<std::uint8_t>(nonce >> 24);
  }

  /// Deterministic pseudo-header for examples/tests.
  static BlockHeader sample(std::uint64_t seed);
};

/// Double SHA256 of the header — the Bitcoin proof-of-work function.
hash::Sha256Digest block_pow_hash(const BlockHeader& header);

/// Counts leading zero bits of a digest (big-endian bit order).
unsigned leading_zero_bits(const hash::Sha256Digest& digest);

/// The per-claim test loop of mine_nonce and NonceSearcher: SHA256d
/// from the cached midstate of the header's first 64-byte block, the
/// paper's "save the intermediate result, process only the last block".
class NonceTester {
 public:
  NonceTester(const BlockHeader& header, unsigned target_zero_bits);

  /// The first nonce from `begin` up, below `end` and not above `*bound`
  /// (re-read per nonce; null = none), that meets the target. `tested`
  /// grows by the nonces hashed.
  std::optional<std::uint64_t> first_hit(
      std::uint64_t begin, std::uint64_t end,
      const std::atomic<std::uint64_t>* bound, std::uint64_t& tested) const;
  const BlockHeader& header() const { return header_; }
  unsigned target_zero_bits() const { return target_zero_bits_; }

 private:
  BlockHeader header_;
  unsigned target_zero_bits_;
  hash::Sha256State<std::uint32_t> midstate_{};
};

/// Result of a nonce search.
struct MiningResult {
  std::optional<std::uint32_t> nonce;  ///< first satisfying nonce
  std::uint64_t tested = 0;
  double elapsed_s = 0;
};

/// Exhaustive nonce search (the Section I motivation): find a nonce in
/// [begin, end) such that SHA256d(header) has at least
/// `target_zero_bits` leading zeros, with NonceTester's cached
/// midstate, on `threads` host threads (parallel_sweep). Returns the
/// smallest satisfying nonce whatever the thread count.
MiningResult mine_nonce(const BlockHeader& header, unsigned target_zero_bits,
                        std::uint64_t begin, std::uint64_t end,
                        std::size_t threads = 0);

}  // namespace gks::core
