#include "simgpu/trace.h"

#include <algorithm>

#include "hash/kernel_words.h"

namespace gks::simgpu {
namespace {

thread_local TraceStream* g_active = nullptr;

}  // namespace

TraceScope::TraceScope(TraceStream& stream) {
  GKS_REQUIRE(g_active == nullptr, "a TraceScope is already active");
  g_active = &stream;
}

TraceScope::~TraceScope() { g_active = nullptr; }

TraceStream& TraceScope::current() {
  GKS_ENSURE(g_active != nullptr,
             "TracedWord used outside an active TraceScope");
  return *g_active;
}

bool TracedWord::SymNode::offset_paid(std::uint32_t offset) const {
  return std::find(materialized_offsets.begin(), materialized_offsets.end(),
                   offset) != materialized_offsets.end();
}

void TracedWord::SymNode::record(std::uint32_t offset) {
  materialized_offsets.push_back(offset);
}

TracedWord::TracedWord(const TracedWord&) = default;
TracedWord::TracedWord(TracedWord&&) noexcept = default;
TracedWord& TracedWord::operator=(const TracedWord&) = default;
TracedWord& TracedWord::operator=(TracedWord&&) noexcept = default;
TracedWord::~TracedWord() = default;

TracedWord TracedWord::symbol() {
  TracedWord w(0u);
  w.is_const_ = false;
  w.node_ = std::make_shared<SymNode>();
  w.offset_ = 0;
  return w;
}

std::uint32_t TracedWord::unpaid_offset() const {
  if (is_const_ || offset_ == 0) return 0;
  return node_->offset_paid(offset_) ? 0 : offset_;
}

void TracedWord::force() {
  if (is_const_) return;
  if (unpaid_offset() != 0) {
    TraceScope::current().emit(SrcOp::kAdd);
    node_->record(offset_);
  }
}

TracedWord operator+(TracedWord a, TracedWord b) {
  TraceStream& s = TraceScope::current();

  if (!s.folding()) {
    // Verbatim source counting (Table III): every addition is emitted,
    // nothing is a compile-time constant.
    s.emit(SrcOp::kAdd);
    return TracedWord::symbol();
  }

  if (a.is_const_ && b.is_const_) return TracedWord(a.value_ + b.value_);
  if (a.is_const_) std::swap(a, b);  // a is symbolic below
  if (b.is_const_) {
    // Constant addend folds into the offset; nvcc reassociates chains
    // like (x + m[k]) + K[i] into a single addition at first use.
    a.offset_ += b.value_;
    return a;
  }
  // Symbol + symbol: one IADD of the two registers. Offsets the
  // operands have already paid for live in those registers; unpaid
  // ones ride along on the result.
  s.emit(SrcOp::kAdd);
  const std::uint32_t carried = a.unpaid_offset() + b.unpaid_offset();
  TracedWord r = TracedWord::symbol();
  r.offset_ = carried;
  return r;
}

TracedWord TracedWord::logic(TracedWord a, TracedWord b, SrcOp op,
                             std::uint32_t folded) {
  TraceStream& s = TraceScope::current();
  if (!s.folding()) {
    s.emit(op);
    return symbol();
  }
  if (a.is_const_ && b.is_const_) return TracedWord(folded);
  // Logical operations leave the additive domain: pending constant
  // addends must be materialized first (once per SSA value + offset).
  a.force();
  b.force();
  s.emit(op);
  return symbol();
}

TracedWord operator&(TracedWord a, TracedWord b) {
  return TracedWord::logic(
      a, b, SrcOp::kAnd,
      a.is_constant() && b.is_constant() ? a.value_ & b.value_ : 0);
}

TracedWord operator|(TracedWord a, TracedWord b) {
  return TracedWord::logic(
      a, b, SrcOp::kOr,
      a.is_constant() && b.is_constant() ? a.value_ | b.value_ : 0);
}

TracedWord operator^(TracedWord a, TracedWord b) {
  return TracedWord::logic(
      a, b, SrcOp::kXor,
      a.is_constant() && b.is_constant() ? a.value_ ^ b.value_ : 0);
}

TracedWord operator~(TracedWord a) {
  TraceStream& s = TraceScope::current();
  if (!s.folding()) {
    s.emit(SrcOp::kNot);
    return TracedWord::symbol();
  }
  if (a.is_constant()) return TracedWord(~a.value_);
  a.force();
  s.emit(SrcOp::kNot);
  return TracedWord::symbol();
}

TracedWord TracedWord::shiftlike(TracedWord a, unsigned n, SrcOp op,
                                 std::uint32_t folded) {
  TraceStream& s = TraceScope::current();
  if (!s.folding()) {
    s.emit(op, n);
    return symbol();
  }
  if (a.is_constant()) return TracedWord(folded);
  a.force();
  s.emit(op, n);
  return symbol();
}

TracedWord rotl(TracedWord a, unsigned n) {
  return TracedWord::shiftlike(
      a, n, SrcOp::kRotl, a.is_constant() ? hash::rotl(a.value_, n) : 0);
}

TracedWord rotr(TracedWord a, unsigned n) {
  return TracedWord::shiftlike(
      a, n, SrcOp::kRotr, a.is_constant() ? hash::rotr(a.value_, n) : 0);
}

TracedWord shr(TracedWord a, unsigned n) {
  return TracedWord::shiftlike(a, n, SrcOp::kShr,
                               a.is_constant() ? a.value_ >> n : 0);
}

}  // namespace gks::simgpu
