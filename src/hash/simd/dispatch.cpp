#include "hash/simd/dispatch.h"

#include <algorithm>
#include <limits>
#include <string_view>
#include <vector>

#include "hash/md5.h"
#include "hash/md5_crack.h"
#include "hash/sha1.h"
#include "hash/sha1_crack.h"
#include "hash/simd/scan_kernels.h"
#include "obs/metrics.h"
#include "support/error.h"
#include "support/stopwatch.h"

namespace gks::hash::simd {
namespace {

// Which ISA each width's translation unit was compiled for. CMake sets
// the GKS_SIMD_W*_ macros in lockstep with the per-TU target flags, so
// a variant's runtime requirement always matches its codegen. Without
// flags (non-x86, GKS_SIMD=OFF, or an old compiler) everything is
// baseline code and unconditionally executable.
enum class IsaReq { kBaseline, kAvx2, kAvx512f };

bool host_supports(IsaReq req) {
  switch (req) {
    case IsaReq::kBaseline:
      return true;
    case IsaReq::kAvx2:
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case IsaReq::kAvx512f:
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
      return __builtin_cpu_supports("avx512f") != 0;
#else
      return false;
#endif
  }
  return false;
}

#if defined(GKS_SIMD_PORTABLE)
constexpr const char* kBaseIsaName = "portable";
#else
constexpr const char* kBaseIsaName = "baseline";
#endif

struct Variant {
  ScanKernels kernels;
  IsaReq requires_isa;
};

constexpr Variant kVariants[] = {
    {{4, kBaseIsaName, &md5_scan_w4, &sha1_scan_w4, &md5_multi_scan_w4,
      &sha1_multi_scan_w4},
     IsaReq::kBaseline},
#if defined(GKS_SIMD_W8_AVX2)
    {{8, "avx2", &md5_scan_w8, &sha1_scan_w8, &md5_multi_scan_w8,
      &sha1_multi_scan_w8},
     IsaReq::kAvx2},
#else
    {{8, kBaseIsaName, &md5_scan_w8, &sha1_scan_w8, &md5_multi_scan_w8,
      &sha1_multi_scan_w8},
     IsaReq::kBaseline},
#endif
#if defined(GKS_SIMD_W16_AVX512)
    {{16, "avx512f", &md5_scan_w16, &sha1_scan_w16, &md5_multi_scan_w16,
      &sha1_multi_scan_w16},
     IsaReq::kAvx512f},
#else
    {{16, kBaseIsaName, &md5_scan_w16, &sha1_scan_w16, &md5_multi_scan_w16,
      &sha1_multi_scan_w16},
     IsaReq::kBaseline},
#endif
};

const std::vector<ScanKernels>& compiled_table() {
  static const std::vector<ScanKernels> table = [] {
    std::vector<ScanKernels> v;
    for (const Variant& variant : kVariants) v.push_back(variant.kernels);
    return v;
  }();
  return table;
}

const std::vector<ScanKernels>& available_table() {
  static const std::vector<ScanKernels> table = [] {
    std::vector<ScanKernels> v;
    for (const Variant& variant : kVariants) {
      if (host_supports(variant.requires_isa)) v.push_back(variant.kernels);
    }
    GKS_ENSURE(!v.empty(), "the baseline lane variant must always run");
    return v;
  }();
  return table;
}

/// The lane-width probe: candidates per pass, and timed rounds. A pass
/// takes about 12 µs at w16 MD5 on an AVX-512 host and 0.35 ms at the
/// portable build's w16 SHA1, so the whole probe stays within a few ms
/// per algorithm (docs/simd.md, "Calibration and scheduling").
constexpr std::uint64_t kProbeKeys = 2048;
constexpr int kProbeRounds = 5;

/// Times every available width on `ctx` and returns the fastest. The
/// rounds interleave the widths after one untimed warm-up round, and
/// each width keeps its best round, so one preemption or frequency dip
/// cannot pin a narrower width. The target lies outside the probed
/// keys, so no pass stops early.
template <class Ctx, class ScanFn>
const ScanKernels& fastest(const Ctx& ctx, bool big_endian,
                           ScanFn ScanKernels::*scan) {
  constexpr std::string_view kCharset = "abcdefghijklmnopqrstuvwxyz";
  const PrefixWord0Iterator start({kCharset.data(), kCharset.size()}, 4, 8,
                                  big_endian);
  const std::vector<ScanKernels>& table = available_table();
  std::vector<double> best(table.size(),
                           std::numeric_limits<double>::infinity());
  for (int round = 0; round <= kProbeRounds; ++round) {
    for (std::size_t i = 0; i < table.size(); ++i) {
      PrefixWord0Iterator it = start;
      const Stopwatch timer;
      (table[i].*scan)(ctx, it, kProbeKeys);
      if (round > 0) best[i] = std::min(best[i], timer.seconds());
    }
  }
  std::size_t winner = 0;
  for (std::size_t i = 1; i < table.size(); ++i) {
    if (best[i] < best[winner]) winner = i;
  }
  // A cold path, once per algorithm and process: recorded whether or
  // not hot-path telemetry is on.
  obs::Registry::global().counter("gks_kernel_calibrations_total").add(1);
  obs::Registry::global().gauge("gks_kernel_lane_width")
      .set(table[winner].width);
  return table[winner];
}

}  // namespace

std::span<const ScanKernels> compiled_kernels() { return compiled_table(); }

std::span<const ScanKernels> available_kernels() { return available_table(); }

const ScanKernels& kernels_for(Algorithm algorithm) {
  // Function-local statics: the first caller per algorithm runs the
  // probe and concurrent first callers block until it is done.
  switch (algorithm) {
    case Algorithm::kMd5: {
      static const ScanKernels& md5 = fastest(
          Md5CrackContext(Md5::digest(""), "aaaa", 8), false,
          &ScanKernels::md5_scan);
      return md5;
    }
    case Algorithm::kSha1: {
      static const ScanKernels& sha1 = fastest(
          Sha1CrackContext(Sha1::digest(""), "aaaa", 8), true,
          &ScanKernels::sha1_scan);
      return sha1;
    }
    case Algorithm::kSha256:
      break;
  }
  GKS_REQUIRE(false, "the lane kernels cover MD5 and SHA1 only");
  return available_table().front();
}

const ScanKernels* kernels_for_width(unsigned width) {
  for (const ScanKernels& k : available_table()) {
    if (k.width == width) return &k;
  }
  return nullptr;
}

}  // namespace gks::hash::simd
