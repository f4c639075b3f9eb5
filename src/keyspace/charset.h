#pragma once

#include <array>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.h"

namespace gks::keyspace {

/// An ordered alphabet of distinct characters. The order defines the
/// digit values of the base-N enumeration (charset[0] is digit 0).
class Charset {
 public:
  /// Builds a charset from the characters of `chars`, in order.
  /// Throws InvalidArgument if empty or containing duplicates.
  explicit Charset(std::string_view chars);

  /// Lower-case letters a..z (N = 26).
  static Charset lower();
  /// Upper-case letters A..Z (N = 26).
  static Charset upper();
  /// Decimal digits 0..9 (N = 10).
  static Charset digits();
  /// Lower + upper case letters (N = 52) — the paper's "alphabetic
  /// characters, both lower and upper case" example of Section I.
  static Charset alpha();
  /// Lower + upper + digits (N = 62) — the paper's evaluation keyspace
  /// ("up to 8 alphanumeric characters, both lower and upper cases").
  static Charset alphanumeric();
  /// All printable ASCII (0x20..0x7e, N = 95).
  static Charset printable();
  /// The command-line spelling: lower|upper|digits|alpha|alnum|
  /// printable, or custom:CHARS. Throws InvalidArgument otherwise.
  static Charset by_name(std::string_view name);

  /// Alphabet size N.
  std::size_t size() const { return chars_.size(); }

  /// Digit value → character.
  char at(std::size_t digit) const {
    GKS_REQUIRE(digit < chars_.size(), "digit outside charset");
    return chars_[digit];
  }

  /// Character → digit value; throws InvalidArgument if the character
  /// is not part of the alphabet.
  std::size_t index_of(char c) const;

  /// True if every character of `s` belongs to the alphabet.
  bool contains_all(std::string_view s) const;

  /// The alphabet characters in digit order.
  std::span<const char> chars() const { return chars_; }

  bool operator==(const Charset& other) const = default;

 private:
  std::vector<char> chars_;
  std::array<int, 256> index_;  ///< char → digit, -1 when absent
};

}  // namespace gks::keyspace
