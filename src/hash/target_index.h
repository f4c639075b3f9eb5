#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hash/digest.h"

namespace gks::hash {

/// Gate-traffic counters for a TargetIndex, owned by the caller (the
/// sweep engine keeps one per sweeper and shares it across every
/// per-tail context). Updated with relaxed atomics on the rare
/// filter-hit path only — the per-candidate miss path never touches
/// them.
///
///   gate_hits:       filter passes handed to the slot lookup;
///   false_positives: filter passes that confirmed no target — either
///                    the slot lookup found no matching word, or every
///                    word-matching slot failed full confirmation.
///
/// false_positives / candidates_tested is the measured false-positive
/// rate; it bounds the confirm-from-state traffic the 32-bit early-exit
/// words leak as target counts approach 2^32 saturation.
struct TargetIndexStats {
  std::atomic<std::uint64_t> gate_hits{0};
  std::atomic<std::uint64_t> false_positives{0};
};

/// Shared lookup structure over the 32-bit early-exit words of a batch
/// of crack targets (t45 for MD5, the rotated step-75 value for SHA1).
///
/// The multi-target contexts used to pay one compare per outstanding
/// digest per candidate — linear in the batch size, which defeats the
/// point of auditing a whole credential store in one sweep. The index
/// makes the per-candidate test O(1) expected regardless of target
/// count, in two layers:
///
///   1. a *front gate* answering "could any target have this word?"
///      in one load. Below ~256k targets this is a direct-indexed bit
///      array (1/fpr bits per target, exact geometry of the original
///      filter); beyond that a direct array would fall out of cache,
///      so the gate switches to a blocked Bloom filter — the word is
///      mixed to 64 bits, a multiply-shift picks one 64-bit block, and
///      k=2 bits of that block must be set. One load either way, and
///      the Bloom geometry holds the design false-positive rate
///      (kGateFpr) in ~16 bits/target instead of 64, keeping a
///      million-target gate cache-resident (docs/multi_target.md
///      derives the sizing).
///   2. a (word, slot) array sorted by word behind a prefix-offset
///      bucket table: the word's high bits index a bucket whose
///      [offset, offset) range in the sorted array is then searched.
///      Two loads replace the former whole-array binary search — at
///      millions of targets that search was ~23 dependent cache misses
///      per gate hit. Every slot whose word matches is returned — not
///      just the first: distinct digests collide on the 32-bit word at
///      birthday rates (likely beyond ~77k targets), and a
///      first-match-only lookup would silently drop the colliding
///      target behind it.
///
/// Slots are the caller's target indices (0..n-1 in construction
/// order); duplicate words are fine and all their slots are returned,
/// ascending. An index is immutable once built: the sweep engine
/// builds a fresh one whenever its target set changes.
class TargetIndex {
 public:
  /// Designed gate false-positive rate. Note the floor at huge
  /// batches: n targets occupy ~n/2^32 of the word space, so true word
  /// matches alone pass at that rate no matter how large the filter
  /// grows.
  static constexpr double kGateFpr = 1.0 / 64;
  /// Bloom filter byte cap; past it the rate degrades gracefully.
  static constexpr std::size_t kMaxFilterBytes = std::size_t{1} << 25;

  struct Config {
    /// Largest direct-indexed bit array (in bits) before the gate
    /// switches to the blocked Bloom filter. 2^24 bits = 2 MiB —
    /// L2-resident on the reference container.
    std::size_t max_direct_bits = std::size_t{1} << 24;
    /// false disables the gate entirely (every probe passes, the slot
    /// lookup does all filtering) — the ablation/differential-test
    /// switch.
    bool gate = true;
    /// Optional shared counters; may be null.
    TargetIndexStats* stats = nullptr;
  };

  /// words[i] is the early-exit word of target slot i. Slots listed in
  /// `retired` (ascending) are left out: they are never returned and
  /// set no gate bits, while every other slot keeps its number.
  explicit TargetIndex(std::span<const std::uint32_t> words);
  TargetIndex(std::span<const std::uint32_t> words, const Config& config,
              std::span<const std::uint32_t> retired = {});

  std::size_t size() const { return slots_.size(); }

  /// One-load gate: false means *no* target has this word (definitive);
  /// true means "run matches()". Hot-path inline. The disabled-gate
  /// mode is encoded in the data (a single all-ones direct block), so
  /// the hot loop carries no extra branch for it.
  bool may_match(std::uint32_t word) const {
    if (direct_) {
      const std::uint32_t b = word & bucket_mask_;
      return (bits_[b >> 6] >> (b & 63)) & 1u;
    }
    const std::uint64_t h = mix_word(word);
    const std::uint64_t mask = (std::uint64_t{1} << ((h >> 32) & 63)) |
                               (std::uint64_t{1} << ((h >> 38) & 63));
    const auto block = static_cast<std::uint32_t>(
        (static_cast<std::uint32_t>(h) * std::uint64_t{nblocks_}) >> 32);
    return (bits_[block] & mask) == mask;
  }

  /// Every slot whose word equals `word`, ascending. Bucketed lookup
  /// over the sorted array — call only after may_match (it is correct
  /// regardless, just slower than the gate on misses). Counts gate
  /// traffic into the configured stats sink.
  std::span<const std::uint32_t> matches(std::uint32_t word) const;

  /// Called by the contexts when a gate pass found word-matching slots
  /// but none survived full confirmation — the second flavor of false
  /// positive (see TargetIndexStats).
  void note_false_positive() const {
    if (config_.stats != nullptr) {
      config_.stats->false_positives.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Gate geometry observability. bucket_mask() is the direct-mode
  /// bit-array mask (bucket count - 1); 0 in bloom mode.
  const char* filter_kind() const;  // "direct" | "bloom" | "off"
  std::size_t filter_bytes() const { return bits_.size() * 8; }
  std::uint32_t bucket_mask() const { return direct_ ? bucket_mask_ : 0; }
  const Config& config() const { return config_; }

 private:
  /// splitmix64 finalizer over the word: decorrelates the Bloom block
  /// and bit choices from the low bits the direct mode indexes by.
  static std::uint64_t mix_word(std::uint32_t word) {
    std::uint64_t z = static_cast<std::uint64_t>(word) +
                      0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  void build_gate();
  void build_offsets();

  Config config_;
  std::vector<std::uint64_t> bits_;  ///< direct bit array or Bloom blocks
  bool direct_ = true;               ///< which gate geometry bits_ holds
  std::uint32_t bucket_mask_ = 63;   ///< direct: bit count - 1 (pow2)
  std::uint32_t nblocks_ = 0;        ///< bloom: 64-bit block count

  std::vector<std::uint32_t> words_;  ///< sorted early-exit words
  std::vector<std::uint32_t> slots_;  ///< slots_[i] owns words_[i]
  /// Prefix-offset bucket table: entries with word >> offset_shift_ ==
  /// b live at [offsets_[b], offsets_[b+1]) in the sorted array.
  std::vector<std::uint32_t> offsets_;
  unsigned offset_shift_ = 31;
};

// Full-digest matching: the test every search that hashes a whole
// candidate runs (generator attacks, and the sweep's generic path for
// prefix salts and short suffix-salted keys). The index is keyed on a
// digest's first 32-bit word and a word match is confirmed against the
// full digest, so per-candidate cost does not depend on the target
// count.

/// Parses `hexes` (either case) and groups equal digests by sorting —
/// no per-entry node allocations, which matters at audit batch sizes.
/// `unique` receives each distinct digest once, ascending, and
/// `slots[u]` the positions of the hexes that parse to unique[u].
/// Throws InvalidArgument on a malformed hex.
template <class DigestT>
void dedup_digests(const std::vector<std::string>& hexes,
                   std::vector<DigestT>& unique,
                   std::vector<std::vector<std::size_t>>& slots) {
  std::vector<std::pair<DigestT, std::size_t>> entries;
  entries.reserve(hexes.size());
  for (std::size_t i = 0; i < hexes.size(); ++i) {
    entries.emplace_back(DigestT::from_hex(hexes[i]), i);
  }
  std::sort(entries.begin(), entries.end());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i == 0 || entries[i].first != entries[i - 1].first) {
      unique.push_back(entries[i].first);
      slots.emplace_back();
    }
    slots.back().push_back(entries[i].second);
  }
}

/// Indexes digests[i] as slot i, leaving out the `retired` slots
/// (ascending) exactly as TargetIndex does.
template <class DigestT>
TargetIndex index_digests(const std::vector<DigestT>& digests,
                          const TargetIndex::Config& config = {},
                          std::span<const std::uint32_t> retired = {}) {
  std::vector<std::uint32_t> words;
  words.reserve(digests.size());
  for (const DigestT& d : digests) {
    words.push_back(load_le32(d.bytes.data()));
  }
  return TargetIndex(words, config, retired);
}

/// Calls on_match(slot), ascending, for every slot of `index` (built by
/// index_digests over `digests`) whose digest equals `digest`. A miss
/// costs one gate load; targets sharing the first word are each
/// confirmed, so none shadows or impersonates another.
template <class DigestT, class OnMatch>
void for_each_digest_match(const TargetIndex& index,
                           const std::vector<DigestT>& digests,
                           const DigestT& digest, OnMatch&& on_match) {
  const std::uint32_t word = load_le32(digest.bytes.data());
  if (!index.may_match(word)) return;
  const auto slots = index.matches(word);
  bool any = false;
  for (const std::uint32_t slot : slots) {
    if (digests[slot] == digest) {
      on_match(slot);
      any = true;
    }
  }
  if (!any && !slots.empty()) index.note_false_positive();
}

}  // namespace gks::hash
