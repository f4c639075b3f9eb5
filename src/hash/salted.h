#pragma once

#include <string>
#include <string_view>

namespace gks::hash {

/// Where the salt is concatenated relative to the key. Salting defeats
/// lookup/rainbow tables (paper Section I) but leaves the brute-force
/// search space unchanged — the salt is known, so the crack kernels
/// simply fold it into the fixed message words.
enum class SaltPosition { kNone, kPrefix, kSuffix };

/// A salting scheme: a (possibly empty) salt string and its position.
struct SaltSpec {
  SaltPosition position = SaltPosition::kNone;
  std::string salt;

  /// Applies the scheme: returns salt+key, key+salt, or key.
  std::string apply(std::string_view key) const {
    std::string message;
    apply_into(key, message);
    return message;
  }

  /// apply() into a caller-owned buffer, so per-candidate loops reuse
  /// one allocation.
  void apply_into(std::string_view key, std::string& message) const {
    message.clear();
    if (position == SaltPosition::kPrefix) message += salt;
    message += key;
    if (position == SaltPosition::kSuffix) message += salt;
  }

  /// Extra bytes the salt adds to every hashed message.
  std::size_t extra_length() const {
    return position == SaltPosition::kNone ? 0 : salt.size();
  }
};

}  // namespace gks::hash
