// Host-CPU microbenchmarks of the hash kernels (google-benchmark):
// streaming reference implementations, the single-block crack kernels
// with and without the Section V-B optimizations, and the multi-lane
// (ILP) instantiation. These are the real-machine counterparts of the
// simulated GPU numbers.
//
// A custom main wraps the console reporter in a capturing one, so
// --json prints the versioned recording (see bench_record.h) after the
// normal output and --out FILE writes it to FILE. All other flags pass
// through to google-benchmark.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_record.h"
#include "hash/lane.h"
#include "hash/simd/dispatch.h"
#include "hash/md5.h"
#include "hash/md5_crack.h"
#include "hash/sha1.h"
#include "hash/sha1_crack.h"
#include "hash/sha256.h"

namespace {

using namespace gks::hash;

void BM_Md5Reference(benchmark::State& state) {
  const std::string key = "p4ssw0rd";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Md5::digest(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Md5Reference);

void BM_Sha1Reference(benchmark::State& state) {
  const std::string key = "p4ssw0rd";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::digest(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Sha1Reference);

void BM_Sha256Reference(benchmark::State& state) {
  const std::string key = "p4ssw0rd";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::digest(key));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Sha256Reference);

void BM_Md5CrackPlain(benchmark::State& state) {
  const Md5CrackContext ctx(Md5::digest("p4ssw0rd"), "w0rd", 8);
  std::uint32_t m0 = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.test_plain(m0++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Md5CrackPlain);

void BM_Md5CrackReversedEarlyExit(benchmark::State& state) {
  const Md5CrackContext ctx(Md5::digest("p4ssw0rd"), "w0rd", 8);
  std::uint32_t m0 = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.test(m0++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Md5CrackReversedEarlyExit);

void BM_Sha1CrackOptimized(benchmark::State& state) {
  const Sha1CrackContext ctx(Sha1::digest("p4ssw0rd"), "w0rd", 8);
  std::uint32_t w0 = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.test(w0++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Sha1CrackOptimized);

void BM_Md5ScanPrefixes(benchmark::State& state) {
  const Md5CrackContext ctx(Md5::digest("zzzzzzzz"), "zzzz", 8);
  const std::string cs =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  PrefixWord0Iterator it({cs.data(), cs.size()}, 4, 8, false);
  const std::uint64_t batch = 4096;
  for (auto _ : state) {
    benchmark::DoNotOptimize(md5_scan_prefixes(ctx, it, batch));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_Md5ScanPrefixes);

void BM_Md5ScanPrefixesLanes(benchmark::State& state) {
  // The SIMD scanner at the width the process picked for MD5 — what
  // the CPU backend runs.
  const Md5CrackContext ctx(Md5::digest("zzzzzzzz"), "zzzz", 8);
  const std::string cs =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  PrefixWord0Iterator it({cs.data(), cs.size()}, 4, 8, false);
  const simd::ScanKernels& k = simd::kernels_for(Algorithm::kMd5);
  const std::uint64_t batch = 4096;
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.md5_scan(ctx, it, batch));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_Md5ScanPrefixesLanes);

void BM_Sha1ScanPrefixes(benchmark::State& state) {
  const Sha1CrackContext ctx(Sha1::digest("zzzzzzzz"), "zzzz", 8);
  const std::string cs =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  PrefixWord0Iterator it({cs.data(), cs.size()}, 4, 8, true);
  const std::uint64_t batch = 4096;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha1_scan_prefixes(ctx, it, batch));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_Sha1ScanPrefixes);

void BM_Sha1ScanPrefixesLanes(benchmark::State& state) {
  const Sha1CrackContext ctx(Sha1::digest("zzzzzzzz"), "zzzz", 8);
  const std::string cs =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  PrefixWord0Iterator it({cs.data(), cs.size()}, 4, 8, true);
  const simd::ScanKernels& k = simd::kernels_for(Algorithm::kSha1);
  const std::uint64_t batch = 4096;
  for (auto _ : state) {
    benchmark::DoNotOptimize(k.sha1_scan(ctx, it, batch));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_Sha1ScanPrefixesLanes);

/// One Arg per width (candidates per pass) the dispatch table compiles.
void compiled_widths(benchmark::internal::Benchmark* b) {
  for (const simd::ScanKernels& k : simd::compiled_kernels()) b->Arg(k.width);
}

void BM_Md5ScanWidth(benchmark::State& state) {
  // One specific pass width (Arg), skipped when the host cannot
  // execute it — isolates the per-width codegen from the dispatcher.
  const auto* k =
      simd::kernels_for_width(static_cast<unsigned>(state.range(0)));
  if (k == nullptr) {
    state.SkipWithError("width not executable on this host");
    return;
  }
  const Md5CrackContext ctx(Md5::digest("zzzzzzzz"), "zzzz", 8);
  const std::string cs =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  PrefixWord0Iterator it({cs.data(), cs.size()}, 4, 8, false);
  const std::uint64_t batch = 4096;
  for (auto _ : state) {
    benchmark::DoNotOptimize(k->md5_scan(ctx, it, batch));
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.SetLabel(k->isa);
}
BENCHMARK(BM_Md5ScanWidth)->Apply(compiled_widths);

void BM_Sha1ScanWidth(benchmark::State& state) {
  const auto* k =
      simd::kernels_for_width(static_cast<unsigned>(state.range(0)));
  if (k == nullptr) {
    state.SkipWithError("width not executable on this host");
    return;
  }
  const Sha1CrackContext ctx(Sha1::digest("zzzzzzzz"), "zzzz", 8);
  const std::string cs =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  PrefixWord0Iterator it({cs.data(), cs.size()}, 4, 8, true);
  const std::uint64_t batch = 4096;
  for (auto _ : state) {
    benchmark::DoNotOptimize(k->sha1_scan(ctx, it, batch));
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.SetLabel(k->isa);
}
BENCHMARK(BM_Sha1ScanWidth)->Apply(compiled_widths);

template <std::size_t N>
void BM_Md5Laned(benchmark::State& state) {
  // N interleaved single-block hashes from one instruction stream.
  std::array<Lane<std::uint32_t, N>, 16> m{};
  for (std::size_t w = 0; w < 16; ++w) {
    for (std::size_t l = 0; l < N; ++l) {
      m[w][l] = static_cast<std::uint32_t>(w * 131 + l * 17);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(md5_single_block(m));
    m[0][0] += 1;  // vary the input
  }
  state.SetItemsProcessed(state.iterations() * N);
}
BENCHMARK(BM_Md5Laned<1>);
BENCHMARK(BM_Md5Laned<2>);
BENCHMARK(BM_Md5Laned<4>);
BENCHMARK(BM_Md5Laned<8>);

/// Console reporter that additionally captures every per-iteration run
/// (skipping aggregates and errored runs) for the JSON recording.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  struct Captured {
    std::string name;
    double real_time_ns;
    double items_per_second;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& r : runs) {
      if (r.error_occurred || r.run_type != Run::RT_Iteration) continue;
      const auto it = r.counters.find("items_per_second");
      captured.push_back(
          {r.benchmark_name(), r.GetAdjustedRealTime(),
           it == r.counters.end() ? 0.0 : static_cast<double>(it->second)});
    }
  }

  std::vector<Captured> captured;
};

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string out_path;
  // Strip our flags before google-benchmark sees (and rejects) them.
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }

  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  if (json || !out_path.empty()) {
    gks::bench::Recording rec("hash_cpu");
    for (const auto& c : reporter.captured) {
      rec.begin_entry()
          .key("name").value(c.name)
          .key("real_time_ns").value(c.real_time_ns)
          .key("items_per_second").value(c.items_per_second);
      rec.end_entry();
    }
    if (json) std::printf("%s", rec.render().c_str());
    if (!out_path.empty()) rec.write(out_path);
  }
  return 0;
}
