// Observability overhead guard: the same single-target sweep timed
// with the telemetry registry enabled and disabled. Sweep counters are
// batched per scan() call (one Stopwatch, a handful of relaxed atomic
// adds) and gate counters piggyback on the existing stats path, so the
// two runs should be indistinguishable; this bench is the proof, and
// --check turns it into a regression gate.
//
// Options:
//   --len L      key length (single-length lower space, 26^L)   [5]
//   --runs R     scans per mode, best taken                      [5]
//   --check PCT  exit 1 when enabled is more than PCT percent
//                slower than disabled (0 disables the gate)      [0]
//   --json       print the versioned recording on stdout
//   --out FILE   write the recording to FILE

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_record.h"
#include "core/multi_sweep.h"
#include "hash/md5.h"
#include "keyspace/space.h"
#include "obs/metrics.h"
#include "support/stopwatch.h"
#include "support/table.h"

namespace {

using namespace gks;

/// Best-of-runs wall seconds for one full-space scan under the current
/// obs::enabled() setting. The sweeper is rebuilt per run so context
/// caches never carry between modes.
double sweep_s(unsigned len, int runs) {
  core::MultiCrackRequest req;
  req.algorithm = hash::Algorithm::kMd5;
  // A digest no lower-case key hashes to: the scan always covers the
  // full space, so both modes do identical work.
  req.target_hexes = {hash::Md5::digest("0000").to_hex()};
  req.charset = keyspace::Charset::lower();
  req.min_length = len;
  req.max_length = len;

  double best = 0;
  for (int run = 0; run < runs; ++run) {
    core::MultiSweeper sweeper(req);
    std::vector<core::SweepHit> hits;
    Stopwatch timer;
    sweeper.scan(req.space_interval(), hits, nullptr);
    const double s = timer.seconds();
    if (run == 0 || s < best) best = s;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string out_path;
  unsigned len = 5;
  int runs = 5;
  double check_pct = 0;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--out") == 0) {
      out_path = value();
    } else if (std::strcmp(argv[i], "--len") == 0) {
      len = static_cast<unsigned>(std::stoul(value()));
    } else if (std::strcmp(argv[i], "--runs") == 0) {
      runs = std::stoi(value());
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check_pct = std::stod(value());
    } else {
      std::fprintf(stderr, "error: unknown option %s\n", argv[i]);
      return 2;
    }
  }

  const double space =
      keyspace::space_size(keyspace::Charset::lower().size(), len, len)
          .to_double();

  // Warm up once (the lane-width probe, page faults) before either
  // timed mode, then interleave-independent best-of runs per mode.
  obs::set_enabled(false);
  sweep_s(len, 1);
  const double off = sweep_s(len, runs);
  obs::set_enabled(true);
  const double on = sweep_s(len, runs);

  const double overhead_pct = off > 0 ? (on - off) / off * 100.0 : 0;

  TablePrinter table;
  table.header({"telemetry", "sweep (s)", "MKey/s", "overhead"});
  table.row({"disabled", TablePrinter::num(off, 3),
             TablePrinter::num(space / off / 1e6, 1), "-"});
  table.row({"enabled", TablePrinter::num(on, 3),
             TablePrinter::num(space / on / 1e6, 1),
             TablePrinter::num(overhead_pct, 2) + "%"});
  std::printf("== Telemetry overhead (MD5, 26^%u = %.3g keys, best of "
              "%d) ==\n\n%s\n",
              len, space, runs, table.str().c_str());

  if (json || !out_path.empty()) {
    bench::Recording rec("obs");
    rec.begin_entry()
        .key("mode").value("disabled")
        .key("sweep_s").value(off)
        .key("keys_per_s").value(space / off)
        .key("overhead_pct").value(0.0);
    rec.end_entry();
    rec.begin_entry()
        .key("mode").value("enabled")
        .key("sweep_s").value(on)
        .key("keys_per_s").value(space / on)
        .key("overhead_pct").value(overhead_pct);
    rec.end_entry();
    if (json) std::printf("%s", rec.render().c_str());
    if (!out_path.empty()) rec.write(out_path);
  }

  if (check_pct > 0 && overhead_pct > check_pct) {
    std::fprintf(stderr,
                 "bench_obs: FAIL — telemetry overhead %.2f%% exceeds "
                 "%.2f%% budget\n",
                 overhead_pct, check_pct);
    return 1;
  }
  return 0;
}
