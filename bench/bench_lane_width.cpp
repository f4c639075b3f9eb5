// Lane-width sweep for the runtime-dispatched SIMD scanners: times the
// scalar engine and every vector width the host can execute (4/8/16)
// over the same word-0 keyspace slice, for MD5 and SHA1. Prints a
// human-readable table, then the width the scan engines run for each
// algorithm (simd::kernels_for's per-process probe), so the pick can
// be checked against the measured best. --json emits the versioned
// recording on stdout and --out FILE writes it to FILE (see
// bench_record.h) so the results can be diffed across hosts and
// compiler flags.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench_record.h"
#include "hash/md5.h"
#include "hash/md5_crack.h"
#include "hash/sha1.h"
#include "hash/sha1_crack.h"
#include "hash/simd/dispatch.h"
#include "support/stopwatch.h"
#include "support/table.h"

namespace {

using namespace gks::hash;

constexpr std::uint64_t kWarmup = 1u << 14;
constexpr std::uint64_t kBatch = 1u << 21;
const std::string kCharset =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

PrefixWord0Iterator fresh_iterator(bool big_endian) {
  return PrefixWord0Iterator({kCharset.data(), kCharset.size()}, 4, 8,
                             big_endian);
}

// Built without operator+(const char*, string&&): GCC 12 trips a
// -Wrestrict false positive on that form at -O2 (PR 105651).
std::string width_name(unsigned width) {
  std::string out = "w";
  out += std::to_string(width);
  return out;
}

/// Keys/s of one scan engine over kBatch candidates. The target is
/// outside the slice, so the early exit never fires and every
/// candidate pays the full kernel cost.
template <class Ctx, class ScanFn>
double measure(const Ctx& ctx, bool big_endian, const ScanFn& scan) {
  auto it = fresh_iterator(big_endian);
  scan(ctx, it, kWarmup);
  gks::Stopwatch timer;
  scan(ctx, it, kBatch);
  return static_cast<double>(kBatch) / timer.seconds();
}

struct Row {
  std::string algorithm;
  std::string engine;
  unsigned width;  // 1 == scalar
  std::string isa;
  double keys_per_s;
};

void emit(const std::vector<Row>& rows) {
  gks::TablePrinter table;
  table.header({"algorithm", "engine", "isa", "MKey/s", "vs scalar"});
  double scalar_md5 = 0, scalar_sha1 = 0;
  for (const auto& r : rows) {
    if (r.width == 1) (r.algorithm == "md5" ? scalar_md5 : scalar_sha1) =
        r.keys_per_s;
  }
  for (const auto& r : rows) {
    const double base = r.algorithm == "md5" ? scalar_md5 : scalar_sha1;
    table.row({r.algorithm, r.engine, r.isa,
               gks::TablePrinter::num(r.keys_per_s / 1e6, 2),
               gks::TablePrinter::num(r.keys_per_s / base, 2) + "x"});
  }
  std::printf("%s\n", table.str().c_str());
}

void emit_recording(const std::vector<Row>& rows, bool json,
                    const std::string& out_path) {
  gks::bench::Recording rec("lane_width");
  for (const auto& r : rows) {
    rec.begin_entry()
        .key("algorithm").value(r.algorithm)
        .key("engine").value(r.engine)
        .key("width").value(static_cast<std::uint64_t>(r.width))
        .key("isa").value(r.isa)
        .key("batch").value(static_cast<std::uint64_t>(kBatch))
        .key("keys_per_s").value(r.keys_per_s);
    rec.end_entry();
  }
  if (json) std::printf("%s", rec.render().c_str());
  if (!out_path.empty()) rec.write(out_path);
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "error: unknown option %s\n", argv[i]);
      return 2;
    }
  }
  const Md5CrackContext md5_ctx(Md5::digest("\x01off-space"), "zzzz", 8);
  const Sha1CrackContext sha1_ctx(Sha1::digest("\x01off-space"), "zzzz", 8);

  std::vector<Row> rows;
  rows.push_back({"md5", "scalar", 1, "scalar",
                  measure(md5_ctx, false,
                          [](const Md5CrackContext& c, PrefixWord0Iterator& it,
                             std::uint64_t n) {
                            return md5_scan_prefixes(c, it, n);
                          })});
  for (const auto& k : simd::available_kernels()) {
    rows.push_back({"md5", width_name(k.width), k.width, k.isa,
                    measure(md5_ctx, false,
                            [&](const Md5CrackContext& c,
                                PrefixWord0Iterator& it, std::uint64_t n) {
                              return k.md5_scan(c, it, n);
                            })});
  }
  rows.push_back({"sha1", "scalar", 1, "scalar",
                  measure(sha1_ctx, true,
                          [](const Sha1CrackContext& c,
                             PrefixWord0Iterator& it, std::uint64_t n) {
                            return sha1_scan_prefixes(c, it, n);
                          })});
  for (const auto& k : simd::available_kernels()) {
    rows.push_back({"sha1", width_name(k.width), k.width, k.isa,
                    measure(sha1_ctx, true,
                            [&](const Sha1CrackContext& c,
                                PrefixWord0Iterator& it, std::uint64_t n) {
                              return k.sha1_scan(c, it, n);
                            })});
  }
  emit(rows);
  for (const Algorithm alg : {Algorithm::kMd5, Algorithm::kSha1}) {
    const simd::ScanKernels& pick = simd::kernels_for(alg);
    std::printf("kernels_for(%s): w%u (%s)\n", algorithm_name(alg),
                pick.width, pick.isa);
  }
  if (json || !out_path.empty()) emit_recording(rows, json, out_path);

  for (const auto& k : simd::compiled_kernels()) {
    bool runnable = false;
    for (const auto& a : simd::available_kernels()) {
      if (a.width == k.width) runnable = true;
    }
    if (!runnable) {
      std::printf("note: w%u (%s) compiled but not executable on this "
                  "host — skipped\n",
                  k.width, k.isa);
    }
  }
  return 0;
}
