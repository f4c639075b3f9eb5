// Ablation: what each MD5 kernel optimization of Section V-B buys.
// Measured twice — in the SIMT simulator on every architecture, and
// for real on the host CPU (naive f(i)+full hash vs next+full hash vs
// the optimized reversal+early-exit engine). The paper quotes ~1.25x
// for the reversal trick "in almost all architectures".

#include <algorithm>
#include <cstdio>

#include "baselines/naive.h"
#include "core/scan_engine.h"
#include "hash/md5.h"
#include "simgpu/kernel_profile.h"
#include "simgpu/lowering.h"
#include "simgpu/simt.h"
#include "support/stopwatch.h"
#include "support/table.h"

namespace {

using namespace gks;

double simulated_mkeys(const simgpu::DeviceSpec& dev,
                       simgpu::Md5KernelVariant variant, bool byte_perm) {
  simgpu::LoweringOptions opt{dev.cc};
  opt.use_byte_perm = byte_perm && dev.cc != simgpu::ComputeCapability::kCc1x;
  simgpu::KernelProfile profile;
  profile.per_candidate = lower(trace_md5(variant), opt);
  return simgpu::SimtSimulator::device_throughput(dev, profile) / 1e6;
}

}  // namespace

int main() {
  using simgpu::Md5KernelVariant;

  std::printf("== Simulated per-device speedups of the kernel "
              "optimizations (MD5) ==\n\n");
  gks::TablePrinter sim_table;
  sim_table.header({"device", "plain", "+reversal", "+early exit",
                    "+byte_perm", "total speedup"});
  for (const auto& dev : simgpu::paper_devices()) {
    const double plain =
        simulated_mkeys(dev, Md5KernelVariant::kPlainCompiled, false);
    const double reversed =
        simulated_mkeys(dev, Md5KernelVariant::kReversedNoEarlyExit, false);
    const double early =
        simulated_mkeys(dev, Md5KernelVariant::kReversed, false);
    const double prmt = simulated_mkeys(dev, Md5KernelVariant::kReversed,
                                        /*byte_perm=*/true);
    sim_table.row({dev.name, gks::TablePrinter::num(plain),
                   gks::TablePrinter::num(reversed),
                   gks::TablePrinter::num(early),
                   gks::TablePrinter::num(prmt),
                   gks::TablePrinter::num(prmt / plain, 2) + "x"});
  }
  std::printf("%s\n", sim_table.str().c_str());
  std::printf("Paper: the reversal alone is ~1.25x on almost all "
              "architectures; byte_perm only helps where shifts bind "
              "(Kepler).\n\n");

  // Real CPU measurement on a small space (6-char lower-case slice).
  std::printf("== Real host-CPU ablation (single thread) ==\n\n");
  core::CrackRequest request;
  request.algorithm = hash::Algorithm::kMd5;
  request.charset = keyspace::Charset::lower();
  request.min_length = 6;
  request.max_length = 6;
  request.target_hex = hash::Md5::digest("zzzzzz").to_hex();
  const keyspace::Interval slice(u128(0), u128(1u << 21));

  const auto naive = baselines::naive_scan(request, slice);
  const auto next_full = baselines::next_full_hash_scan(request, slice);
  const core::ScanPlan plan(request);
  // ScanPlan leaves timing to its caller; the baselines time themselves.
  gks::Stopwatch timer;
  (void)plan.scan(slice);
  const double optimized_s = std::max(timer.seconds(), 1e-9);

  const double naive_rate = slice.size().to_double() / naive.busy_virtual_s;
  const double next_rate =
      slice.size().to_double() / next_full.busy_virtual_s;
  const double opt_rate = slice.size().to_double() / optimized_s;

  gks::TablePrinter cpu_table;
  cpu_table.header({"engine", "MKey/s", "speedup vs naive"});
  cpu_table.row({"naive: f(i) decode + full hash",
                 gks::TablePrinter::num(naive_rate / 1e6, 2), "1.00x"});
  cpu_table.row({"next operator + full hash",
                 gks::TablePrinter::num(next_rate / 1e6, 2),
                 gks::TablePrinter::num(next_rate / naive_rate, 2) + "x"});
  cpu_table.row({"reversal + early exit (ours)",
                 gks::TablePrinter::num(opt_rate / 1e6, 2),
                 gks::TablePrinter::num(opt_rate / naive_rate, 2) + "x"});
  std::printf("%s\n", cpu_table.str().c_str());
  return 0;
}
