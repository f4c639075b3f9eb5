#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "hash/digest.h"
#include "hash/md5_kernel.h"

namespace gks::hash {

/// Precomputed context for the optimized MD5 crack kernel of Section V.
///
/// A context fixes everything about the candidate message except its
/// first four bytes (message word 0): the tail characters, the padding,
/// and the length word. From the target digest it precomputes the
/// 15-step *reverted* state — MD5's word 0 is consumed by steps 0, 19,
/// 41 and 48 but never by steps 49..63, so those steps can be undone
/// once per target instead of executed once per candidate (the BarsWF
/// optimization, ~1.25x). Each test then runs only 49 forward steps,
/// and usually far fewer thanks to the early-exit comparison after
/// step 45 (the "save three more steps" optimization).
///
/// Threads must therefore enumerate candidates in *prefix-major* order
/// (paper mapping (4)): consecutive identifiers vary the first
/// characters, which all live in word 0.
///
/// Suffix salts are supported transparently (they are part of the fixed
/// tail). Prefix salts would displace the varying characters out of
/// word 0; callers must use the plain kernel for those.
class Md5CrackContext {
 public:
  /// `tail` holds the message bytes from offset 4 onward (key characters
  /// after the first four, then any suffix salt); `total_len` is the full
  /// message length in bytes. If total_len < 4 the tail must be empty
  /// (the padding byte then lives inside word 0).
  Md5CrackContext(const Md5Digest& target, std::string_view tail,
                  std::size_t total_len);

  /// Tests one candidate (first four message bytes packed little-endian,
  /// as produced by pack_md5_word0). Uses the reverted target: 45 forward
  /// steps, then up to 4 early-exit compare steps.
  bool test(std::uint32_t m0) const;

  /// Tests the same candidate with the unoptimized kernel: all 64 steps,
  /// feed-forward, full digest compare. Used by the naive baseline and by
  /// tests cross-checking the optimized path.
  bool test_plain(std::uint32_t m0) const;

  /// Fixed message words (word 0 is a placeholder).
  const std::array<std::uint32_t, 16>& message_words() const { return m_; }

  /// The reverted state the forward steps are compared against.
  const Md5State<std::uint32_t>& reverted_target() const { return reverted_; }

  /// The target digest this context was built for.
  const Md5Digest& target() const { return target_; }

 private:
  std::array<std::uint32_t, 16> m_{};
  Md5State<std::uint32_t> reverted_{};
  Md5Digest target_{};
};

/// Walks the word-0 candidate values for keys whose first
/// min(4, key_len) characters range over a charset in prefix-major
/// order (first character fastest — paper mapping (4)).
///
/// The iterator maintains the packed word incrementally: advancing
/// usually rewrites a single byte, the word-level analogue of the
/// `next` operator of Figure 2.
class PrefixWord0Iterator {
 public:
  /// `charset`: candidate characters; `prefix_chars`: how many leading
  /// characters vary (1..4); `key_len`: full key length (determines
  /// where the 0x80 pad byte sits when key_len < 4); `big_endian`:
  /// false for MD5 word packing, true for SHA1.
  PrefixWord0Iterator(std::span<const char> charset, unsigned prefix_chars,
                      std::size_t key_len, bool big_endian);

  /// Sets the current position from per-character digit indices
  /// (digits[0] is the first, fastest-varying character).
  void seek(std::span<const std::uint32_t> digits);

  /// Packed word 0 for the current prefix.
  std::uint32_t word0() const { return word_; }

  /// Current prefix characters (first `prefix_chars()` entries valid).
  std::span<const char> prefix() const {
    return {chars_.data(), prefix_chars_};
  }

  /// Advances to the next prefix; returns false (and wraps to the first
  /// prefix) when all combinations are exhausted.
  bool advance();

  /// Writes the next n word-0 values to out[0..n) and moves past them:
  /// exactly n word0()/advance() pairs, wrap included. This is how a
  /// lane kernel fills a block: the first character steps in-line and
  /// only its carry into the next character calls advance().
  /// Always inlined: the header is compiled for several ISAs (one per
  /// lane width), and an out-of-line copy built for one of them could
  /// be the one the linker keeps for all.
  [[gnu::always_inline]] inline void next_words(std::uint32_t* out,
                                                std::size_t n);

  unsigned prefix_chars() const { return prefix_chars_; }

  /// Total number of distinct prefixes (|charset|^prefix_chars).
  std::uint64_t combinations() const;

 private:
  void pack_all();
  void set_char(unsigned pos, char c);

  std::array<char, 4> chars_{};
  std::array<std::uint32_t, 4> digits_{};
  std::uint32_t word_ = 0;
  std::span<const char> charset_;
  unsigned prefix_chars_;
  std::size_t key_len_;
  bool big_endian_;
};

void PrefixWord0Iterator::next_words(std::uint32_t* out, std::size_t n) {
  // Locals, not members: `out` may alias the iterator's words, so the
  // compiler would otherwise reload them after every store. Between
  // carries only the first character's byte changes, so each word is
  // the other three bytes OR one charset byte, with no chain through
  // the previous word.
  const unsigned shift = big_endian_ ? 24u : 0u;
  const std::uint32_t mask = 0xFFu << shift;
  const char* const charset = charset_.data();
  const std::size_t radix = charset_.size();
  const auto byte = [&](std::uint32_t digit) {
    return static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(charset[digit]))
           << shift;
  };
  std::uint32_t rest = word_ & ~mask;
  std::uint32_t digit = digits_[0];
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = rest | byte(digit);
    if (++digit == radix) {
      word_ = out[i];
      digits_[0] = digit - 1;
      advance();
      rest = word_ & ~mask;
      digit = digits_[0];
    }
  }
  word_ = rest | byte(digit);
  digits_[0] = digit;
  chars_[0] = charset[digit];
}

/// Scans `count` consecutive prefix-major candidates starting at the
/// iterator's current position; returns the offset of the first match,
/// if any. The iterator is left positioned after the scanned range.
/// This is the inner loop a simulated-GPU thread executes.
std::optional<std::uint64_t> md5_scan_prefixes(const Md5CrackContext& ctx,
                                               PrefixWord0Iterator& it,
                                               std::uint64_t count);

}  // namespace gks::hash
