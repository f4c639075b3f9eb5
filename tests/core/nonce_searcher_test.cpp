#include "core/nonce_searcher.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dispatch/agent.h"
#include "support/error.h"

namespace gks::core {
namespace {

TEST(NonceSearcher, FindsEverySatisfyingNonceInTheInterval) {
  const BlockHeader header = BlockHeader::sample(21);
  const unsigned bits = 8;  // ~1 hit per 256 nonces
  const std::uint32_t begin = 3001;
  const std::uint32_t end = begin + (1u << 14);

  // The exact answer, one nonce at a time.
  std::vector<std::uint64_t> expected;
  for (std::uint32_t nonce = begin; nonce < end; ++nonce) {
    BlockHeader h = header;
    h.set_nonce(nonce);
    if (leading_zero_bits(block_pow_hash(h)) >= bits) {
      expected.push_back(nonce);
    }
  }
  ASSERT_GE(expected.size(), 16u);  // 64 expected

  for (const std::size_t threads : {1u, 3u}) {
    NonceSearcher searcher(header, bits, threads);
    const auto out = searcher.scan({u128(begin), u128(end)});
    EXPECT_EQ(out.tested, u128(end - begin)) << threads;
    std::vector<std::uint64_t> ids;
    for (const auto& f : out.found) {
      ids.push_back(f.id.to_u64());
      EXPECT_EQ(f.value, std::to_string(ids.back()));
    }
    EXPECT_EQ(ids, expected) << threads << " threads";
  }
}

TEST(NonceSearcher, EmptyAndMissIntervals) {
  NonceSearcher searcher(BlockHeader::sample(5), 200, 1);
  EXPECT_TRUE(searcher.scan({u128(0), u128(0)}).found.empty());
  const auto out = searcher.scan({u128(0), u128(2048)});
  EXPECT_TRUE(out.found.empty());
  EXPECT_EQ(out.tested, u128(2048));
}

TEST(NonceSearcher, RejectsOversizedIdentifiers) {
  NonceSearcher searcher(BlockHeader::sample(5), 8, 1);
  EXPECT_THROW(searcher.scan({u128(0), u128(1, 0)}), InvalidArgument);
}

TEST(NonceSearcher, RunsThroughTheDispatchPattern) {
  // The generality claim of Section III: the same NodeAgent that
  // dispatches password cracking runs Bitcoin-style mining unchanged.
  simnet::Network net(1.0);  // real time: these are real CPU devices
  const auto root = net.add_node("miner");

  const BlockHeader header = BlockHeader::sample(77);
  const unsigned bits = 12;
  std::vector<std::unique_ptr<dispatch::IntervalSearcher>> devices;
  devices.push_back(std::make_unique<NonceSearcher>(header, bits, 2));

  dispatch::AgentConfig config;
  config.tune.start_batch = u128(4096);
  config.round_virtual_target_s = 0.05;
  config.min_timeout_real_s = 0.2;
  dispatch::NodeAgent agent(net, root, std::move(devices), config);

  const keyspace::Interval nonce_space(u128(0), u128(1u << 18));
  const auto report = agent.run_root(nonce_space, nonce_space);
  ASSERT_FALSE(report.found.empty());

  BlockHeader solved = header;
  solved.set_nonce(
      static_cast<std::uint32_t>(report.found.front().id.to_u64()));
  EXPECT_GE(leading_zero_bits(block_pow_hash(solved)), bits);
}

TEST(NonceSearcher, DescriptionAndTheoretical) {
  NonceSearcher searcher(BlockHeader::sample(5), 16, 2);
  EXPECT_NE(searcher.description().find("SHA256d"), std::string::npos);
  EXPECT_GT(searcher.theoretical_throughput(), 1e4);
  EXPECT_FALSE(searcher.is_simulated());
}

}  // namespace
}  // namespace gks::core
