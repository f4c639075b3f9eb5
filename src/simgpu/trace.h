#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "simgpu/isa.h"
#include "support/error.h"

namespace gks::simgpu {

/// Collects the source-level instruction stream emitted by TracedWord
/// operations. One stream is active per thread at a time (TraceScope).
///
/// With `fold_constants` enabled the stream behaves like an optimizing
/// compiler front-end: operations between compile-time constants
/// vanish, and constant addends accumulate on symbolic values until a
/// non-additive operation materializes them as a single IADD — the
/// reassociation nvcc performs on (x + m[k]) + K[i] chains. A
/// materialized (value + offset) pair is remembered, so reusing the
/// same sum later is free (value numbering). With folding disabled the
/// stream records every source operation verbatim, which is what the
/// paper's Table III counts.
class TraceStream {
 public:
  explicit TraceStream(bool fold_constants = true) : fold_(fold_constants) {}

  bool folding() const { return fold_; }

  void emit(SrcOp op, unsigned amount = 0) {
    instructions_.push_back({op, amount});
  }

  const std::vector<SrcInstr>& instructions() const { return instructions_; }

  /// Source-level histogram (Table III rows).
  std::size_t count(SrcOp op) const {
    std::size_t n = 0;
    for (const auto& i : instructions_) {
      if (i.op == op) ++n;
    }
    return n;
  }

 private:
  bool fold_;
  std::vector<SrcInstr> instructions_;
};

/// RAII activation of a TraceStream for the current thread. Nested
/// scopes are forbidden (kernels are traced one at a time).
class TraceScope {
 public:
  explicit TraceScope(TraceStream& stream);
  ~TraceScope();

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  /// The stream the current thread is tracing into; throws if none.
  static TraceStream& current();
};

/// Symbolic 32-bit word. Instantiating the hash kernel templates with
/// TracedWord replays the exact kernel code while recording its
/// instruction stream (DESIGN.md §5.1: the counted kernel *is* the
/// executed kernel).
///
/// A word is either a compile-time constant or a runtime value. A
/// runtime value is (node, offset): `node` identifies the computed SSA
/// value — shared by all copies, like a compiler temporary — and
/// `offset` is a constant addend not yet paid for. Materializing
/// node+offset costs one IADD the first time and is free afterwards.
class TracedWord {
 public:
  /// Compile-time constant (message padding, round constants, ...).
  explicit TracedWord(std::uint32_t value)
      : is_const_(true), value_(value) {}

  TracedWord() : TracedWord(0u) {}

  // Out of line on purpose. The hash cores are [[gnu::flatten]], and
  // flattening inline shared_ptr copies into their unrolled steps took
  // GCC about 50 s on kernel_profile.cpp, and minutes under ASan.
  TracedWord(const TracedWord&);
  TracedWord(TracedWord&&) noexcept;
  TracedWord& operator=(const TracedWord&);
  TracedWord& operator=(TracedWord&&) noexcept;
  ~TracedWord();

  /// A runtime input the compiler cannot fold (the candidate word).
  static TracedWord symbol();

  bool is_constant() const { return is_const_; }

  /// Constant value; only valid when is_constant().
  std::uint32_t constant_value() const {
    GKS_REQUIRE(is_constant(), "word is not a compile-time constant");
    return value_;
  }

  /// Pays any pending constant addition — what the feed-forward or a
  /// digest comparison forces at the end of a kernel.
  void force();

  friend TracedWord operator+(TracedWord a, TracedWord b);
  friend TracedWord operator&(TracedWord a, TracedWord b);
  friend TracedWord operator|(TracedWord a, TracedWord b);
  friend TracedWord operator^(TracedWord a, TracedWord b);
  friend TracedWord operator~(TracedWord a);
  friend TracedWord rotl(TracedWord a, unsigned n);
  friend TracedWord rotr(TracedWord a, unsigned n);
  friend TracedWord shr(TracedWord a, unsigned n);

 private:
  /// Materialization record of one SSA value: constant offsets that
  /// have already been added into a register.
  struct SymNode {
    std::vector<std::uint32_t> materialized_offsets;
    bool offset_paid(std::uint32_t offset) const;
    void record(std::uint32_t offset);
  };

  static TracedWord logic(TracedWord a, TracedWord b, SrcOp op,
                          std::uint32_t folded);
  static TracedWord shiftlike(TracedWord a, unsigned n, SrcOp op,
                              std::uint32_t folded);

  /// Offset still unpaid for this value (0 if none or already
  /// materialized earlier).
  std::uint32_t unpaid_offset() const;

  bool is_const_;
  std::uint32_t value_ = 0;           ///< constant value when is_const_
  std::shared_ptr<SymNode> node_;     ///< SSA identity when symbolic
  std::uint32_t offset_ = 0;          ///< pending constant addend
};

}  // namespace gks::simgpu
