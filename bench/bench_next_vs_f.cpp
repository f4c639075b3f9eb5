// Microbenchmark of the K_next << K_f claim (Sections III-A and IV):
// the incremental `next` operator of Figure 2 versus a full f(i)
// decode per candidate, across key lengths.

#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>

#include "hash/md5_crack.h"
#include "keyspace/codec.h"
#include "keyspace/space.h"

namespace {

using namespace gks::keyspace;

void BM_FullDecode(benchmark::State& state) {
  const KeyCodec codec(Charset::alphanumeric(), DigitOrder::kPrefixFastest);
  const unsigned length = static_cast<unsigned>(state.range(0));
  const gks::u128 base = first_id_of_length(62, length);
  gks::u128 id = base;
  std::string key;
  for (auto _ : state) {
    codec.decode_into(id, key);
    benchmark::DoNotOptimize(key.data());
    ++id;
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("f(i) per candidate, length " + std::to_string(length));
}
BENCHMARK(BM_FullDecode)->Arg(4)->Arg(8)->Arg(16);

void BM_NextOperator(benchmark::State& state) {
  const KeyCodec codec(Charset::alphanumeric(), DigitOrder::kPrefixFastest);
  const unsigned length = static_cast<unsigned>(state.range(0));
  std::string key = codec.decode(first_id_of_length(62, length));
  for (auto _ : state) {
    codec.next_inplace(key);
    benchmark::DoNotOptimize(key.data());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel("next operator, length " + std::to_string(length));
}
BENCHMARK(BM_NextOperator)->Arg(4)->Arg(8)->Arg(16);

void BM_EncodeInverse(benchmark::State& state) {
  const KeyCodec codec(Charset::alphanumeric(), DigitOrder::kPrefixFastest);
  const std::string key(static_cast<std::size_t>(state.range(0)), 'Q');
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeInverse)->Arg(4)->Arg(8)->Arg(16);

void BM_Word0IteratorAdvance(benchmark::State& state) {
  // The word-level next operator the crack kernels actually run.
  const std::string cs =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  gks::hash::PrefixWord0Iterator it({cs.data(), cs.size()}, 4, 8, false);
  for (auto _ : state) {
    it.advance();
    benchmark::DoNotOptimize(it.word0());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Word0IteratorAdvance);

void BM_Word0IteratorBlockFill(benchmark::State& state) {
  // What a 16-lane kernel block runs instead: one in-line fill of all
  // 16 word-0 lanes, advance() called only on a first-character carry.
  const std::string cs =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  gks::hash::PrefixWord0Iterator it({cs.data(), cs.size()}, 4, 8, false);
  std::array<std::uint32_t, 16> words;
  for (auto _ : state) {
    it.next_words(words.data(), words.size());
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(words.size()));
}
BENCHMARK(BM_Word0IteratorBlockFill);

}  // namespace
