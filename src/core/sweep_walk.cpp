#include "core/sweep_walk.h"

#include <algorithm>
#include <array>
#include <span>
#include <utility>

#include "keyspace/space.h"

namespace gks::core {

SweepWalk::SweepWalk(const SearchSpace& space)
    : algorithm_(space.algorithm),
      generator_(space.make_generator()),
      salt_(space.salt) {}

TailBlock SweepWalk::block_at(u128 id, u128 end) const {
  std::string first_key;
  generator_.generate(id, first_key);
  const auto key_len = static_cast<unsigned>(first_key.size());
  const unsigned prefix_chars = std::min(4u, key_len);

  const keyspace::Charset& charset = generator_.codec().charset();
  const u128 block = keyspace::keys_of_length(charset.size(), prefix_chars);
  const u128 first_of_len =
      keyspace::first_id_of_length(charset.size(), key_len) -
      generator_.global_offset();
  const u128 within = (id - first_of_len) % block;
  TailBlock out{keyspace::Interval(id, id + std::min(end - id, block - within)),
                key_len, std::nullopt};

  const bool word0 =
      algorithm_ != hash::Algorithm::kSha256 &&
      (salt_.position == hash::SaltPosition::kNone ||
       (salt_.position == hash::SaltPosition::kSuffix && key_len >= 4));
  if (!word0) return out;

  std::string tail;
  if (key_len > 4) tail = first_key.substr(4);
  if (salt_.position == hash::SaltPosition::kSuffix) tail += salt_.salt;
  hash::PrefixWord0Iterator it(charset.chars(), prefix_chars, key_len,
                               algorithm_ == hash::Algorithm::kSha1);
  std::array<std::uint32_t, 4> digits{};
  for (unsigned i = 0; i < prefix_chars; ++i) {
    digits[i] = static_cast<std::uint32_t>(charset.index_of(first_key[i]));
  }
  it.seek(std::span(digits.data(), prefix_chars));
  out.word0.emplace(
      Word0Start{std::move(tail), key_len + salt_.extra_length(), it});
  return out;
}

}  // namespace gks::core
