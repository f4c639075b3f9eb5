#pragma once

// Runtime dispatch for the SIMD lane-scan engine. The library compiles
// the lane scanners at widths 4, 8 and 16 in separate translation units
// with per-TU target flags (SSE2-baseline / AVX2 / AVX-512 where the
// compiler supports them); this header exposes the table of compiled
// variants, selects once per process via CPUID the subset the host can
// actually execute, and picks once per process and algorithm the width
// the scan engines run. See docs/simd.md for the full ladder.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "hash/digest.h"

namespace gks::hash {
class Md5CrackContext;
class Md5MultiContext;
struct MultiHit;
class PrefixWord0Iterator;
class Sha1CrackContext;
class Sha1MultiContext;
}  // namespace gks::hash

namespace gks::hash::simd {

using Md5ScanFn = std::optional<std::uint64_t> (*)(const Md5CrackContext&,
                                                   PrefixWord0Iterator&,
                                                   std::uint64_t);
using Sha1ScanFn = std::optional<std::uint64_t> (*)(const Sha1CrackContext&,
                                                    PrefixWord0Iterator&,
                                                    std::uint64_t);
using Md5MultiScanFn = void (*)(const Md5MultiContext&, PrefixWord0Iterator&,
                                std::uint64_t, std::vector<MultiHit>&);
using Sha1MultiScanFn = void (*)(const Sha1MultiContext&, PrefixWord0Iterator&,
                                 std::uint64_t, std::vector<MultiHit>&);

/// One compiled scan-engine variant: both algorithms at one lane width.
/// Semantics of the single-target function pointers match
/// md5_scan_prefixes / sha1_scan_prefixes exactly (first-match offset,
/// iterator left past the scanned range or just past the hit); the
/// multi-target pointers match md5_multi_scan_prefixes /
/// sha1_multi_scan_prefixes (every hit appended, no early stop).
struct ScanKernels {
  unsigned width;   ///< candidates per kernel pass (vector lanes)
  const char* isa;  ///< codegen target the TU was built for
  Md5ScanFn md5_scan;
  Sha1ScanFn sha1_scan;
  Md5MultiScanFn md5_multi_scan;
  Sha1MultiScanFn sha1_multi_scan;
};

/// Every variant compiled into this binary, width-ascending — including
/// ones the running host may not be able to execute.
std::span<const ScanKernels> compiled_kernels();

/// The variants the host supports (CPUID-filtered once, then cached),
/// width-ascending. Never empty: the width-4 variant uses baseline
/// codegen and is always executable.
std::span<const ScanKernels> available_kernels();

/// The variant every scan engine runs for `algorithm` (MD5 or SHA1;
/// throws InvalidArgument otherwise). The first call per algorithm
/// times each available width on a fixed synthetic one-target context,
/// best of several interleaved rounds, and keeps the fastest for the
/// rest of the process; concurrent first callers wait for that one
/// probe. The widest width is not always the fastest (docs/simd.md,
/// "Calibration and scheduling"). Points into available_kernels().
const ScanKernels& kernels_for(Algorithm algorithm);

/// The available variant of exactly `width`, or nullptr if that width
/// was not compiled or the host cannot run it.
const ScanKernels* kernels_for_width(unsigned width);

}  // namespace gks::hash::simd
