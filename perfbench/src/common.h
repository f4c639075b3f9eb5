// Shared machinery of the benchmark: the seeded input generator, the
// result sheet (metrics + failure accounting + recovered preimages),
// sample statistics, the span recorder of the traced run, and the
// cluster configuration every dist-tier measurement uses.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/crack_request.h"
#include "core/multi_crack.h"
#include "dist/coordinator.h"
#include "dist/worker_daemon.h"
#include "obs/trace.h"
#include "service/job.h"
#include "support/rng.h"
#include "support/uint128.h"

namespace perfbench {

using gks::u128;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (journals, span dumps).
  std::string scratch = ".";
  /// Reduced sizes for the self-test: every workload shrinks its key
  /// spaces (and the cluster its leases) to a few seconds per run.
  bool quick = false;
  /// Run check_verifier() instead of a workload.
  bool check_verifier = false;
};

/// Seconds since the benchmark process started (steady clock).
double now_s();

/// Order statistics of a timing sample set.
struct Summary {
  std::size_t n = 0;
  double median = 0;
  /// The highest percentile with at least ten samples beyond it (0 when
  /// fewer than 20 samples), and its value.
  double top_pct = 0;
  double top_value = 0;
  double max = 0;
};
Summary summarize(std::vector<double> samples);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty set.
double quantile(std::vector<double> samples, double q);

/// One MD5 target the benchmark planted: the key and its digest.
struct Planted {
  std::string key;
  std::string digest;
};

/// Everything a run reports. Metrics are printed by name with their
/// unit; `failed` counts operations (jobs, planted targets) that did
/// not verify; `evidence` holds every recovered (digest, key) pair so
/// the runner can re-hash them independently.
class Sheet {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A timing metric reported as its median, with the full summary kept
  /// for the printed table.
  void timing(const std::string& name, const std::vector<double>& samples,
              const std::string& unit = "s");
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why);
  void evidence(const std::string& digest, const std::string& key);
  void invalid(const std::string& why) { invalid_ = why; }
  bool has(const std::string& name) const { return metrics_.count(name) > 0; }
  double get(const std::string& name) const;
  std::uint64_t failed() const { return failed_; }
  std::string to_json() const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
    std::optional<Summary> summary;
  };
  std::map<std::string, Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> evidence_;
  std::string invalid_;
};

/// Checks one finished job against what was planted in it: the job must
/// be done with coverage equal to its space, every planted key must be
/// recovered exactly once with a digest-matching preimage, and nothing
/// else may be "found" (every other target is a decoy with no preimage
/// in the space). Counts one attempted operation for the job and one per
/// planted target.
void verify_job(Sheet& sheet, const gks::service::JobSnapshot& job,
                const std::vector<Planted>& planted);

/// Feeds verify_job() one good job and one job per kind of defect it
/// must count (missed key, duplicate recovery, wrong preimage, unplanted
/// find, short coverage, job not done); prints each verdict and returns
/// whether every defect was counted and the good job was not.
bool check_verifier();

/// A random 16-byte digest: with overwhelming probability no key of any
/// benchmark space hashes to it, so it keeps a job sweeping its whole
/// space.
std::string decoy_digest(gks::SplitMix64& rng);

/// Plants a key at generator-relative identifier `id` of the request's
/// key space (prefix-fastest enumeration, as every engine uses).
Planted plant_at(const gks::keyspace::Charset& charset, unsigned min_len,
                 unsigned max_len, const u128& id);

/// A request over one key space with the given targets.
gks::core::MultiCrackRequest md5_request(const gks::keyspace::Charset& charset,
                                         unsigned min_len, unsigned max_len,
                                         std::vector<std::string> digests);

/// The single-target form, for LocalCracker and ClusterCracker.
gks::core::CrackRequest md5_crack_request(const gks::keyspace::Charset& charset,
                                          unsigned min_len, unsigned max_len,
                                          const std::string& digest);

/// What a seeded stream generates.
enum Purpose : std::uint64_t {
  kTargets = 1,  ///< bulk target sets and their planted keys
  kTenants,      ///< tenant arrival times and targets
  kFaults,       ///< fault-injection and backoff seeds
  kCracks,       ///< long-crack planted positions
  kShortJobs,    ///< short-crack planted positions
  kLadder,       ///< the ladder's decoy and fault seed
};

/// Derives an independent stream for one purpose from the run seed, so
/// that adding a draw to one input never shifts another.
gks::SplitMix64 stream(std::uint64_t seed, Purpose purpose);

/// Spans of the traced run. Recorded from the benchmark's own files
/// around each call into a layer; kept in memory and written out when
/// the run ends. A null Tracer (untraced runs) records nothing.
class Tracer {
 public:
  Tracer();
  gks::obs::TraceRing& ring() { return ring_; }
  /// Writes the spans to `path` as JSON.
  void dump(const std::string& path) const;
  /// Self time per layer: each span's duration minus the part of it
  /// covered by spans nested inside it on the same thread.
  std::map<std::string, double> self_time_by_layer() const;

 private:
  gks::obs::TraceRing ring_;
};

/// RAII span around one call into `layer` ("core", "dist", ...). No-op
/// when `tracer` is null.
class Call {
 public:
  Call(Tracer* tracer, const char* layer, const char* what);
  Call(const Call&) = delete;
  Call& operator=(const Call&) = delete;

 private:
  std::unique_ptr<gks::obs::Span> span_;
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// The cluster both cluster workloads and the ladder's dist rungs run:
/// leases clamped to 2^22 candidates (about a tenth of a second of one
/// scan thread), so each of the three workers retires dozens of leases
/// per sweep, and recovery knobs sized to the loopback round trip, so
/// one lost frame costs a fraction of a second instead of the 10 s
/// production defaults. Loss, when present, is the only difference.
struct ClusterShape {
  std::size_t workers = 3;
  u128 max_lease = u128(1) << 22;
  gks::dist::CoordinatorConfig coordinator() const;
  gks::dist::WorkerConfig worker(std::size_t index,
                                 std::uint64_t backoff_seed) const;
  /// Frame-loss probability per direction of the lossy runs.
  static constexpr double kLoss = 0.01;
};

/// The shape at full size, or with leases shrunk to the self-test's
/// smaller spaces so every worker still retires dozens of them.
ClusterShape cluster_shape(bool quick);

}  // namespace perfbench
