#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <set>
#include <thread>

#include "hash/md5.h"
#include "keyspace/charset.h"
#include "keyspace/codec.h"
#include "keyspace/keyspace_generator.h"
#include "support/error.h"
#include "support/json.h"

namespace perfbench {

using namespace gks;

double now_s() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch)
      .count();
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double at = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(at));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (at - lo);
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.median = quantile(samples, 0.5);
  s.max = samples.back();
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (static_cast<double>(s.n) * (1 - p / 100) >= 10) {
      s.top_pct = p;
      s.top_value = quantile(samples, p / 100);
    }
  }
  return s;
}

void Sheet::metric(const std::string& name, double value,
                   const std::string& unit) {
  GKS_REQUIRE(std::isfinite(value), "metric " + name + " is not finite");
  metrics_[name] = Metric{value, unit, std::nullopt};
}

void Sheet::timing(const std::string& name, const std::vector<double>& samples,
                   const std::string& unit) {
  GKS_REQUIRE(!samples.empty(), "no samples of " + name);
  const Summary s = summarize(samples);
  metrics_[name] = Metric{s.median, unit, s};
}

void Sheet::fail(const std::string& why) {
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(why);
}

void Sheet::evidence(const std::string& digest, const std::string& key) {
  evidence_.emplace_back(digest, key);
}

double Sheet::get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0 : it->second.value;
}

std::string Sheet::to_json() const {
  json::Writer w;
  w.begin_object();
  w.key("attempted").value(attempted_);
  w.key("failed").value(failed_);
  w.key("failures").begin_array();
  for (const auto& f : failures_) w.value(f);
  w.end_array();
  w.key("invalid").value(invalid_);
  w.key("metrics").begin_object();
  for (const auto& [name, m] : metrics_) {
    w.key(name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    if (m.summary) {
      w.key("n").value(static_cast<std::uint64_t>(m.summary->n));
      w.key("top_pct").value(m.summary->top_pct);
      w.key("top_value").value(m.summary->top_value);
      w.key("max").value(m.summary->max);
    }
    w.end_object();
  }
  w.end_object();
  w.key("evidence").begin_array();
  for (const auto& [digest, key] : evidence_) {
    w.begin_array().value(digest).value(key).end_array();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

void verify_job(Sheet& sheet, const service::JobSnapshot& job,
                const std::vector<Planted>& planted) {
  sheet.attempt(1 + planted.size());
  if (job.state != service::JobState::kDone) {
    sheet.fail("job " + job.name + " ended " +
               service::job_state_name(job.state));
  } else if (job.scanned != job.space) {
    sheet.fail("job " + job.name + " covered " + job.scanned.to_string() +
               " of " + job.space.to_string());
  }
  std::map<std::string, std::vector<std::string>> found;
  for (const auto& [digest, key] : job.found) {
    sheet.evidence(digest, key);
    found[digest].push_back(key);
  }
  std::set<std::string> planted_digests;
  for (const Planted& p : planted) {
    planted_digests.insert(p.digest);
    const auto it = found.find(p.digest);
    if (it == found.end()) {
      sheet.fail("job " + job.name + " missed planted key " + p.key);
    } else if (it->second.size() != 1) {
      sheet.fail("job " + job.name + " recovered " + p.key + " " +
                 std::to_string(it->second.size()) + " times");
    } else if (hash::Md5::digest(it->second.front()).to_hex() != p.digest) {
      sheet.fail("job " + job.name + " reported a wrong preimage for " +
                 p.digest);
    }
  }
  for (const auto& [digest, keys] : found) {
    if (planted_digests.count(digest) == 0) {
      for (std::size_t i = 0; i < keys.size(); ++i) {
        sheet.attempt();
        sheet.fail("job " + job.name + " found unplanted digest " + digest);
      }
    }
  }
}

bool check_verifier() {
  const Planted a = plant_at(keyspace::Charset::lower(), 4, 4, u128(7));
  const Planted b = plant_at(keyspace::Charset::lower(), 4, 4, u128(9));
  service::JobSnapshot good;
  good.name = "good";
  good.state = service::JobState::kDone;
  good.space = u128(26 * 26 * 26 * 26);
  good.scanned = good.space;
  good.found = {{a.digest, a.key}, {b.digest, b.key}};

  struct Case {
    const char* name;
    service::JobSnapshot job;
    std::uint64_t expect_failed;
  };
  std::vector<Case> cases = {{"good", good, 0}};
  Case missed{"missed key", good, 1};
  missed.job.found.pop_back();
  Case duplicate{"duplicate recovery", good, 1};
  duplicate.job.found.push_back({b.digest, b.key});
  Case wrong{"wrong preimage", good, 1};
  wrong.job.found.back().second = a.key;
  Case unplanted{"unplanted find", good, 1};
  unplanted.job.found.push_back({std::string(32, 'f'), "zzzz"});
  Case short_cover{"short coverage", good, 1};
  short_cover.job.scanned = good.space - u128(1);
  Case cancelled{"job not done", good, 1};
  cancelled.job.state = service::JobState::kCancelled;
  cases.insert(cases.end(),
               {missed, duplicate, wrong, unplanted, short_cover, cancelled});

  bool ok = true;
  for (const Case& c : cases) {
    Sheet sheet;
    verify_job(sheet, c.job, {a, b});
    const bool pass = sheet.failed() == c.expect_failed;
    std::printf("%-20s failed %llu (expected %llu) %s\n", c.name,
                static_cast<unsigned long long>(sheet.failed()),
                static_cast<unsigned long long>(c.expect_failed),
                pass ? "ok" : "WRONG");
    ok = ok && pass;
  }
  return ok;
}

std::string decoy_digest(SplitMix64& rng) {
  char hex[33];
  std::snprintf(hex, sizeof hex, "%016llx%016llx",
                static_cast<unsigned long long>(rng()),
                static_cast<unsigned long long>(rng()));
  return hex;
}

Planted plant_at(const keyspace::Charset& charset, unsigned min_len,
                 unsigned max_len, const u128& id) {
  const keyspace::KeyspaceGenerator gen(
      keyspace::KeyCodec(charset, keyspace::DigitOrder::kPrefixFastest),
      min_len, max_len);
  Planted p;
  gen.generate(id, p.key);
  p.digest = hash::Md5::digest(p.key).to_hex();
  return p;
}

core::MultiCrackRequest md5_request(const keyspace::Charset& charset,
                                    unsigned min_len, unsigned max_len,
                                    std::vector<std::string> digests) {
  core::MultiCrackRequest req;
  req.algorithm = hash::Algorithm::kMd5;
  req.charset = charset;
  req.min_length = min_len;
  req.max_length = max_len;
  req.target_hexes = std::move(digests);
  return req;
}

core::CrackRequest md5_crack_request(const keyspace::Charset& charset,
                                     unsigned min_len, unsigned max_len,
                                     const std::string& digest) {
  core::CrackRequest req;
  req.algorithm = hash::Algorithm::kMd5;
  req.target_hex = digest;
  req.charset = charset;
  req.min_length = min_len;
  req.max_length = max_len;
  return req;
}

SplitMix64 stream(std::uint64_t seed, Purpose purpose) {
  SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + purpose);
  return SplitMix64(mix() ^ mix());
}

Tracer::Tracer() : ring_(1 << 16) {}

void Tracer::dump(const std::string& path) const {
  json::Writer w;
  obs::spans_to_json(w, ring_);
  std::ofstream out(path);
  out << w.str() << "\n";
}

std::map<std::string, double> Tracer::self_time_by_layer() const {
  // Span names are "layer.call"; notes are "t<thread>".
  std::map<std::string, std::vector<obs::SpanRecord>> by_thread;
  for (const obs::SpanRecord& r : ring_.recent()) {
    by_thread[r.note].push_back(r);
  }
  std::map<std::string, double> self;
  for (auto& [thread, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(),
              [](const obs::SpanRecord& a, const obs::SpanRecord& b) {
                return a.start_s != b.start_s ? a.start_s < b.start_s
                                              : a.dur_s > b.dur_s;
              });
    // Open ancestors on this thread; a span's direct children subtract
    // from its self time.
    std::vector<std::pair<const obs::SpanRecord*, double>> stack;
    const auto close = [&](std::size_t keep) {
      while (stack.size() > keep) {
        const auto [span, child_s] = stack.back();
        stack.pop_back();
        const std::string layer = span->name.substr(0, span->name.find('.'));
        self[layer] += std::max(0.0, span->dur_s - child_s);
      }
    };
    for (const obs::SpanRecord& r : spans) {
      while (!stack.empty() &&
             r.start_s >= stack.back().first->start_s +
                              stack.back().first->dur_s) {
        close(stack.size() - 1);
      }
      if (!stack.empty()) stack.back().second += r.dur_s;
      stack.emplace_back(&r, 0.0);
    }
    close(0);
  }
  return self;
}

Call::Call(Tracer* tracer, const char* layer, const char* what) {
  if (tracer == nullptr) return;
  span_ = std::make_unique<obs::Span>(std::string(layer) + "." + what,
                                      nullptr, &tracer->ring());
  // Built by append: gcc 12's -Wrestrict misfires on
  // operator+(const char*, string&&).
  std::string thread = "t";
  thread += std::to_string(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
  span_->note(thread);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

dist::CoordinatorConfig ClusterShape::coordinator() const {
  dist::CoordinatorConfig c;
  c.lease_s = 1.5;
  c.heartbeat_s = 0.25;
  c.reap_interval_s = 0.1;
  c.max_lease = max_lease;
  return c;
}

ClusterShape cluster_shape(bool quick) {
  ClusterShape shape;
  if (quick) shape.max_lease = u128(1) << 16;
  return shape;
}

dist::WorkerConfig ClusterShape::worker(std::size_t index,
                                        std::uint64_t backoff_seed) const {
  dist::WorkerConfig w;
  w.name = "w";
  w.name += std::to_string(index);
  w.threads = 1;
  w.recv_timeout_s = 0.03;
  w.reconnect_attempts = 100;
  w.reconnect_backoff_s = 0.005;
  w.reconnect_backoff_max_s = 0.05;
  w.backoff_seed = backoff_seed + index + 1;
  return w;
}

}  // namespace perfbench
