#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "hash/digest.h"
#include "hash/md5_crack.h"  // PrefixWord0Iterator
#include "hash/md5_kernel.h"
#include "hash/sha1_kernel.h"
#include "hash/target_index.h"

namespace gks::hash {

/// One multi-target scan hit: the candidate's offset into the scanned
/// range and the matching target slot (index into the context's target
/// vector). A candidate can produce several hits when the batch holds
/// duplicate digests.
struct MultiHit {
  std::uint64_t offset;
  std::uint32_t slot;

  friend bool operator==(const MultiHit&, const MultiHit&) = default;
};

/// Multi-target MD5 crack context: tests one candidate against many
/// digests with a *single* forward computation.
///
/// The kernel's forward steps depend only on the message, never on the
/// target — targets enter solely through the final comparisons. A
/// candidate costs the usual 45 steps plus one early-exit value; the
/// targets are then consulted through a shared TargetIndex over their
/// reverted t45 words, so the per-candidate cost is O(1) expected
/// *regardless of target count* (one filter load on the common miss,
/// a binary search plus confirm steps on the rare word match). Cracking
/// N digests over the same key space therefore costs essentially the
/// same as cracking one — the engine auditing sessions (Section I) use.
class Md5MultiContext {
 public:
  /// All targets share the fixed tail/total_len (same key-space sweep).
  /// `index_config` selects the front-gate geometry (direct bit array
  /// vs blocked Bloom) and the optional shared stats sink — see
  /// TargetIndex::Config. Slot i is targets[i]; the slots in `retired`
  /// (ascending) are left out of the index and never reported, while
  /// every other target keeps its slot number. Immutable once built.
  Md5MultiContext(const std::vector<Md5Digest>& targets,
                  std::string_view tail, std::size_t total_len,
                  const TargetIndex::Config& index_config = {},
                  std::span<const std::uint32_t> retired = {});

  /// Tests a candidate word 0; returns the lowest-numbered matching
  /// target, or npos (the overwhelmingly common case). Targets whose
  /// reverted word collides on 32 bits are each confirmed — a word
  /// match never shadows the real target behind it.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t test(std::uint32_t m0) const;

  /// Appends {offset, slot} for *every* target the candidate fully
  /// matches (duplicates included), slots ascending. Used by the scan
  /// drivers, which must report all hits, not just the first.
  void test_hits(std::uint32_t m0, std::uint64_t offset,
                 std::vector<MultiHit>& out) const;

  /// Resolves a filter hit from state a scan engine already computed:
  /// `s45` is the state after step 45 and `t45` the early-exit value for
  /// candidate word `m0`. Appends exactly what test_hits(m0, ...) would,
  /// without redoing the 45 forward steps — lane kernels hold that state
  /// in registers, so a filter false positive costs only the slot lookup
  /// here instead of a full scalar recompute.
  void confirm_hits(std::uint32_t m0, const Md5State<std::uint32_t>& s45,
                    std::uint32_t t45, std::uint64_t offset,
                    std::vector<MultiHit>& out) const;

  std::size_t target_count() const { return reverted_.size(); }

  /// Fixed message words (word 0 is a placeholder) — lane kernels.
  const std::array<std::uint32_t, 16>& message_words() const { return m_; }

  /// Index over the targets' reverted t45 words — lane kernels probe it
  /// per lane and confirm only on filter hits.
  const TargetIndex& index() const { return index_; }

 private:
  bool confirm(const std::array<std::uint32_t, 16>& m,
               const Md5State<std::uint32_t>& s45, std::uint32_t t45,
               const Md5State<std::uint32_t>& reverted) const;

  std::array<std::uint32_t, 16> m_{};
  std::vector<Md5State<std::uint32_t>> reverted_;
  TargetIndex index_;
};

/// SHA1 counterpart: steps 0..75 run once, the early-exit comparison
/// value is looked up in the index over every target's
/// feed-forward-reverted `e` word.
class Sha1MultiContext {
 public:
  /// Same slot contract as Md5MultiContext.
  Sha1MultiContext(const std::vector<Sha1Digest>& targets,
                   std::string_view tail, std::size_t total_len,
                   const TargetIndex::Config& index_config = {},
                   std::span<const std::uint32_t> retired = {});

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t test(std::uint32_t w0) const;

  void test_hits(std::uint32_t w0, std::uint64_t offset,
                 std::vector<MultiHit>& out) const;

  /// Filter-hit resolution from precomputed state: `ring` holds the last
  /// 16 schedule words and `s76` the registers, both as of step 76
  /// (after 76 steps, before step 76's expansion). Appends exactly what
  /// test_hits(w0, ...) would without redoing the 76 steps.
  void confirm_hits(const std::array<std::uint32_t, 16>& ring,
                    const Sha1State<std::uint32_t>& s76, std::uint64_t offset,
                    std::vector<MultiHit>& out) const;

  std::size_t target_count() const { return unfed_.size(); }

  const std::array<std::uint32_t, 16>& message_words() const { return m_; }
  const TargetIndex& index() const { return index_; }

 private:
  bool confirm(std::array<std::uint32_t, 16> ring,
               Sha1State<std::uint32_t> s76,
               const Sha1State<std::uint32_t>& unfed) const;

  std::array<std::uint32_t, 16> m_{};
  std::vector<Sha1State<std::uint32_t>> unfed_;
  TargetIndex index_;
};

/// Scans `count` consecutive prefix-major candidates from the
/// iterator's position, appending every hit (offset relative to the
/// scan start, hits offset-ascending). Unlike the single-target
/// scanners these never stop early — a batch sweep wants all hits in
/// the range. The iterator is left past the scanned range. These are
/// the scalar reference engines; the lane-vectorized counterparts live
/// behind hash/simd/dispatch.h and are bit-identical.
void md5_multi_scan_prefixes(const Md5MultiContext& ctx,
                             PrefixWord0Iterator& it, std::uint64_t count,
                             std::vector<MultiHit>& hits);
void sha1_multi_scan_prefixes(const Sha1MultiContext& ctx,
                              PrefixWord0Iterator& it, std::uint64_t count,
                              std::vector<MultiHit>& hits);

}  // namespace gks::hash
