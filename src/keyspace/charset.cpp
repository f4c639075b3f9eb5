#include "keyspace/charset.h"

namespace gks::keyspace {

Charset::Charset(std::string_view chars) {
  GKS_REQUIRE(!chars.empty(), "charset must not be empty");
  index_.fill(-1);
  chars_.reserve(chars.size());
  for (char c : chars) {
    const auto u = static_cast<unsigned char>(c);
    GKS_REQUIRE(index_[u] == -1, "duplicate character in charset");
    index_[u] = static_cast<int>(chars_.size());
    chars_.push_back(c);
  }
}

namespace {
std::string range(char lo, char hi) {
  std::string s;
  for (char c = lo; c <= hi; ++c) s.push_back(c);
  return s;
}
}  // namespace

Charset Charset::lower() { return Charset(range('a', 'z')); }
Charset Charset::upper() { return Charset(range('A', 'Z')); }
Charset Charset::digits() { return Charset(range('0', '9')); }
Charset Charset::alpha() { return Charset(range('a', 'z') + range('A', 'Z')); }
Charset Charset::alphanumeric() {
  return Charset(range('a', 'z') + range('A', 'Z') + range('0', '9'));
}
Charset Charset::printable() { return Charset(range(' ', '~')); }

Charset Charset::by_name(std::string_view name) {
  if (name == "lower") return lower();
  if (name == "upper") return upper();
  if (name == "digits") return digits();
  if (name == "alpha") return alpha();
  if (name == "alnum") return alphanumeric();
  if (name == "printable") return printable();
  if (name.starts_with("custom:")) return Charset(name.substr(7));
  throw InvalidArgument("unknown charset: " + std::string(name));
}

std::size_t Charset::index_of(char c) const {
  const int i = index_[static_cast<unsigned char>(c)];
  GKS_REQUIRE(i >= 0, std::string("character '") + c + "' not in charset");
  return static_cast<std::size_t>(i);
}

bool Charset::contains_all(std::string_view s) const {
  for (char c : s) {
    if (index_[static_cast<unsigned char>(c)] < 0) return false;
  }
  return true;
}

}  // namespace gks::keyspace
