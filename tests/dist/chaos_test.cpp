#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.h"
#include "dist/fault_transport.h"
#include "dist/simnet_transport.h"
#include "dist/tcp_transport.h"
#include "dist/worker_daemon.h"
#include "hash/md5.h"
#include "keyspace/keyspace_generator.h"
#include "service/job_manager.h"
#include "simnet/network.h"

namespace gks::dist {
namespace {

std::string key_at(const service::JobSpec& spec, const u128& id) {
  const keyspace::KeyspaceGenerator gen(
      keyspace::KeyCodec(spec.request.charset,
                         keyspace::DigitOrder::kPrefixFastest),
      spec.request.min_length, spec.request.max_length);
  std::string key;
  gen.generate(id, key);
  return key;
}

service::JobSpec planted_job(const std::string& name, const std::string& key,
                             unsigned min_length, unsigned max_length) {
  service::JobSpec spec;
  spec.name = name;
  spec.request.algorithm = hash::Algorithm::kMd5;
  spec.request.target_hexes = {hash::Md5::digest(key).to_hex()};
  spec.request.charset = keyspace::Charset::lower();
  spec.request.min_length = min_length;
  spec.request.max_length = max_length;
  return spec;
}

// ---------------------------------------------------------------------------
// backoff_delay: the pure reconnect-backoff policy.

TEST(Backoff, GrowsExponentiallyUpToTheCapWithBoundedJitter) {
  WorkerConfig cfg;
  cfg.reconnect_backoff_s = 0.5;
  cfg.reconnect_backoff_max_s = 4.0;
  SplitMix64 rng(7);
  for (int attempt = 0; attempt < 12; ++attempt) {
    const double base =
        std::min(0.5 * static_cast<double>(1ULL << attempt), 4.0);
    const double d = backoff_delay(attempt, cfg, rng);
    EXPECT_GE(d, 0.5 * base) << "attempt " << attempt;
    EXPECT_LT(d, 1.5 * base) << "attempt " << attempt;
  }
}

TEST(Backoff, IsDeterministicFromTheSeed) {
  WorkerConfig cfg;
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int attempt = 0; attempt < 8; ++attempt) {
    EXPECT_DOUBLE_EQ(backoff_delay(attempt, cfg, a),
                     backoff_delay(attempt, cfg, b));
  }
}

// ---------------------------------------------------------------------------
// RetransmitTimer: the pure RFC 6298 retransmit-timeout estimator.

TEST(RetransmitTimer, StartsAtOneSecondOrTheCeilingBeforeAnySample) {
  EXPECT_DOUBLE_EQ(RetransmitTimer(10.0).rto_s(), 1.0);
  EXPECT_DOUBLE_EQ(RetransmitTimer(0.03).rto_s(), 0.03);
}

TEST(RetransmitTimer, FollowsRfc6298AboveTheFloor) {
  RetransmitTimer t(10.0);
  t.sample(0.1);  // srtt 0.1, rttvar 0.05
  EXPECT_DOUBLE_EQ(t.rto_s(), 0.1 + 4 * 0.05);
  t.sample(0.1);  // rttvar 3/4 of 0.05, srtt unchanged
  EXPECT_DOUBLE_EQ(t.rto_s(), 0.1 + 4 * 0.0375);
  t.sample(0.3);  // rttvar 3/4·0.0375 + 1/4·0.2, srtt 7/8·0.1 + 1/8·0.3
  EXPECT_NEAR(t.rto_s(), 0.125 + 4 * (0.028125 + 0.05), 1e-12);

  RetransmitTimer fast(10.0);
  for (int i = 0; i < 8; ++i) fast.sample(1e-5);
  EXPECT_DOUBLE_EQ(fast.rto_s(), kMinRtoS);
}

TEST(RetransmitTimer, BackOffDoublesUpToTheCeilingUntilTheNextSample) {
  RetransmitTimer t(0.5);
  t.sample(0.05);  // rto 0.15
  t.back_off();
  EXPECT_DOUBLE_EQ(t.rto_s(), 0.3);
  t.back_off();
  EXPECT_DOUBLE_EQ(t.rto_s(), 0.5);  // the ceiling
  t.sample(0.05);  // rttvar 0.01875, srtt 0.05
  EXPECT_DOUBLE_EQ(t.rto_s(), 0.05 + 4 * 0.01875);
}

// ---------------------------------------------------------------------------
// FaultInjectingTransport in isolation, over simnet.

struct PipeResult {
  FaultStats stats;
  int received = 0;
};

/// One sender (faulted) pushes `count` messages to one receiver (clean)
/// over simnet; returns the injector's stats and the delivery count.
PipeResult run_pipe(const FaultPlan& plan, std::uint64_t seed, int count) {
  simnet::Network net;  // default fast virtual time, fixed simnet seed
  const auto an = net.add_node("a");
  const auto bn = net.add_node("b");
  net.connect(an, bn);
  SimnetTransport ta(net, an);
  SimnetTransport tb(net, bn);
  FaultInjectingTransport faulty(tb, plan, seed);

  auto listener = ta.listen("a");
  PipeResult result;
  std::thread server([&] {
    auto conn = listener->accept(/*timeout_s=*/60.0);
    if (!conn) return;
    try {
      while (conn->recv(/*timeout_s=*/30.0).has_value()) ++result.received;
    } catch (const TransportError&) {
    }
  });

  auto conn = faulty.connect("a", /*timeout_s=*/60.0);
  for (int i = 0; i < count; ++i) {
    try {
      conn->send("message-" + std::to_string(i));
    } catch (const TransportError&) {
      break;  // injected reset; the remainder of the batch is lost
    }
  }
  server.join();
  conn->close();
  listener->close();
  result.stats = faulty.stats();
  return result;
}

TEST(FaultTransport, FaultScheduleIsDeterministicFromTheSeed) {
  FaultPlan plan;
  plan.send.drop = 0.3;
  plan.send.corrupt = 0.2;
  plan.send.duplicate = 0.2;
  const PipeResult a = run_pipe(plan, /*seed=*/1234, 200);
  const PipeResult b = run_pipe(plan, /*seed=*/1234, 200);
  EXPECT_EQ(a.stats.sent, b.stats.sent);
  EXPECT_EQ(a.stats.dropped, b.stats.dropped);
  EXPECT_EQ(a.stats.corrupted, b.stats.corrupted);
  EXPECT_EQ(a.stats.duplicated, b.stats.duplicated);
  // The plan actually fired: a chaos run that injects nothing would
  // vacuously "pass" every assertion downstream.
  EXPECT_GT(a.stats.dropped, 0u);
  EXPECT_GT(a.stats.corrupted, 0u);
  EXPECT_GT(a.stats.duplicated, 0u);
  // Everything that passed the injector (plus duplicates) arrives —
  // the faults live above a lossless link.
  EXPECT_EQ(static_cast<std::uint64_t>(a.received),
            a.stats.sent + a.stats.duplicated);
  EXPECT_EQ(a.received, b.received);
}

TEST(FaultTransport, PartitionBlackholesEverything) {
  FaultPlan plan;
  plan.partitions.push_back(Partition{0.0, 3600.0, ""});  // sever all, always
  const PipeResult r = run_pipe(plan, /*seed=*/9, 50);
  EXPECT_EQ(r.stats.blackholed, 50u);
  EXPECT_EQ(r.stats.sent, 0u);
  EXPECT_EQ(r.received, 0);
}

TEST(FaultTransport, FaultsStayDisarmedUntilArmAfter) {
  FaultPlan plan;
  plan.send.drop = 1.0;        // would drop everything …
  plan.arm_after_s = 3600.0;   // … but never arms within this test
  const PipeResult r = run_pipe(plan, /*seed=*/9, 50);
  EXPECT_EQ(r.stats.dropped, 0u);
  EXPECT_EQ(r.received, 50);
}

// ---------------------------------------------------------------------------
// The seeded chaos matrix: full coordinator/worker dispatch over simnet
// with a fault plan in the workers' path, asserting exactly-once
// completion. Every case logs its seed; export GKS_CHAOS_SEED to
// override and replay a failure.

struct ChaosCase {
  const char* name;
  std::uint64_t seed;
  FaultSpec send;
  FaultSpec recv;
  std::vector<Partition> partitions;
  /// Lost and duplicated frames heal on the live session (retransmit,
  /// stale replies discarded): such a case ends with no reconnects.
  bool retransmit_heals = false;
};

FaultSpec drop_spec(double p) {
  FaultSpec f;
  f.drop = p;
  return f;
}

FaultSpec mixed_spec() {
  FaultSpec f;
  f.drop = 0.05;
  f.corrupt = 0.03;
  f.duplicate = 0.10;
  f.truncate = 0.02;
  f.reset = 0.01;
  f.delay_p = 0.10;
  f.delay_s = 0.02;
  return f;
}

FaultSpec one_fault(double FaultSpec::*knob, double p) {
  FaultSpec f;
  f.*knob = p;
  return f;
}

// The case's name is its printed value, which ctest's test discovery
// turns into the test name (.../drop). The default print would be the
// struct's raw bytes, pointers included, so the names would change
// from build to build.
void PrintTo(const ChaosCase& c, std::ostream* os) { *os << c.name; }

class ChaosMatrix : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(ChaosMatrix, ExactlyOnceCompletionUnderInjectedFaults) {
  const ChaosCase& c = GetParam();
  std::uint64_t seed = c.seed;
  if (const char* env = std::getenv("GKS_CHAOS_SEED")) {
    seed = std::strtoull(env, nullptr, 0);
  }
  // The replay handle: a failing run is reproduced by re-running this
  // one case with GKS_CHAOS_SEED set to the printed seed.
  std::fprintf(stderr, "[chaos] case=%s seed=%llu\n", c.name,
               static_cast<unsigned long long>(seed));

  simnet::Network net(/*time_scale=*/1.0);
  const auto cn = net.add_node("coordinator");
  const auto w1n = net.add_node("w1");
  const auto w2n = net.add_node("w2");
  net.connect(cn, w1n);
  net.connect(cn, w2n);

  // Planted at the very end of the id space: completion requires the
  // whole space swept, several leases' worth, through the weather.
  service::JobSpec spec = planted_job("alpha", "placeholder", 4, 4);
  const u128 space = keyspace::space_size(spec.request.charset.size(), 4, 4);
  const std::string key = key_at(spec, space - u128(1));
  spec.request.target_hexes = {hash::Md5::digest(key).to_hex()};

  const std::string journal =
      (std::filesystem::temp_directory_path() /
       ("gks_chaos_" + std::string(c.name) + "_" + std::to_string(seed) +
        ".jsonl"))
          .string();
  std::filesystem::remove(journal);

  {
    service::JobServiceConfig scfg;
    scfg.local_scan = false;
    scfg.journal_path = journal;
    service::JobManager manager(scfg);
    const auto id = manager.submit(spec);

    SimnetTransport ct(net, cn);
    SimnetTransport w1t(net, w1n);
    SimnetTransport w2t(net, w2n);
    FaultPlan plan;
    plan.send = c.send;
    plan.recv = c.recv;
    plan.partitions = c.partitions;
    FaultInjectingTransport f1(w1t, plan, seed);
    FaultInjectingTransport f2(w2t, plan, seed ^ 0xabcdef);

    CoordinatorConfig ccfg;
    ccfg.lease_s = 1.0;
    ccfg.heartbeat_s = 0.25;
    ccfg.idle_retry_s = 0.05;
    ccfg.reap_interval_s = 0.05;
    // Small leases make the run protocol-heavy (~28 grant/retire round
    // trips): the faults hit the wire protocol, not the scan loop.
    ccfg.max_lease = u128(1) << 14;
    ccfg.session_timeout_s = 2.0;  // reap abandoned sessions quickly
    ccfg.quarantine_s = 0.5;       // flaky workers sit out briefly
    Coordinator coordinator(manager, ct, ccfg);
    coordinator.start("coordinator");

    WorkerConfig wcfg;
    wcfg.threads = 2;
    wcfg.recv_timeout_s = 0.3;       // notice injected losses quickly
    wcfg.reconnect_attempts = 10000; // chaos burns reconnects; don't quit
    wcfg.reconnect_backoff_s = 0.02;
    wcfg.reconnect_backoff_max_s = 0.3;
    wcfg.backoff_seed = seed + 1;
    wcfg.name = "w1";
    WorkerDaemon w1(f1, wcfg);
    wcfg.name = "w2";
    wcfg.backoff_seed = seed + 2;
    WorkerDaemon w2(f2, wcfg);
    std::thread t1([&] { w1.run("coordinator"); });
    std::thread t2([&] { w2.run("coordinator"); });

    ASSERT_TRUE(manager.wait(id, 180.0))
        << "chaos case " << c.name << " seed " << seed
        << " did not complete";
    w1.stop();
    w2.stop();
    t1.join();
    t2.join();
    coordinator.stop();

    const service::JobSnapshot s = manager.status(id);
    EXPECT_EQ(s.state, service::JobState::kDone);
    EXPECT_EQ(s.targets_found, 1u);  // exactly once, despite replays
    ASSERT_EQ(s.found.size(), 1u);
    EXPECT_EQ(s.found[0].second, key);
    if (c.retransmit_heals) {
      EXPECT_EQ(w1.stats().reconnects, 0u) << "seed " << seed;
      EXPECT_EQ(w2.stats().reconnects, 0u) << "seed " << seed;
    }
  }

  // The journal written under chaos replays clean: coverage complete,
  // no interval journaled twice (journaled == covered is the
  // exactly-once witness), the key found exactly once, and nothing
  // quarantined — the weather never reached the disk.
  service::JobStore::LoadReport report;
  const auto recovered = service::JobStore::load(journal, &report);
  EXPECT_EQ(report.quarantined, 0u);
  ASSERT_EQ(recovered.size(), 1u);
  const auto& rec = recovered[0];
  // The key sits on the space's last id, so coverage must have reached
  // the end (completion is all-targets-found, not full coverage — the
  // re-dispatch of expired intervals may still have gaps behind it).
  EXPECT_GT(rec.scanned.covered(), u128(0));
  EXPECT_EQ(rec.journaled, rec.scanned.covered());
  ASSERT_EQ(rec.found.size(), 1u);
  EXPECT_EQ(rec.found[0].second, key);
  ASSERT_TRUE(rec.final_state.has_value());
  EXPECT_EQ(*rec.final_state, service::JobState::kDone);

  std::filesystem::remove(journal);
}

INSTANTIATE_TEST_SUITE_P(
    Seeded, ChaosMatrix,
    ::testing::Values(
        ChaosCase{"drop", 101, drop_spec(0.10), drop_spec(0.10), {}, true},
        ChaosCase{"drop_alt_seed", 31337, drop_spec(0.10), drop_spec(0.10),
                  {}, true},
        ChaosCase{"corrupt", 202, one_fault(&FaultSpec::corrupt, 0.08),
                  one_fault(&FaultSpec::corrupt, 0.05), {}},
        ChaosCase{"duplicate", 303, one_fault(&FaultSpec::duplicate, 0.20),
                  one_fault(&FaultSpec::duplicate, 0.20), {}, true},
        ChaosCase{"truncate", 404, one_fault(&FaultSpec::truncate, 0.05),
                  one_fault(&FaultSpec::truncate, 0.03), {}},
        ChaosCase{"reset", 505, one_fault(&FaultSpec::reset, 0.02),
                  one_fault(&FaultSpec::reset, 0.01), {}},
        ChaosCase{"partition", 606, FaultSpec{}, FaultSpec{},
                  {Partition{0.0, 0.8, ""}}},
        ChaosCase{"kitchen_sink", 707, mixed_spec(), mixed_spec(), {}},
        ChaosCase{"kitchen_sink_alt_seed", 4242, mixed_spec(), mixed_spec(),
                  {}}));

// ---------------------------------------------------------------------------
// Flaky link, simnet-native: 40% loss on the coordinator↔worker path
// until the fault has demonstrably bitten, then healed; the sweep must
// still complete with the key found exactly once.

TEST(ChaosLink, LossyLinkHealsAndTheSweepCompletes) {
  simnet::Network net(/*time_scale=*/1.0);
  const auto cn = net.add_node("coordinator");
  const auto wn = net.add_node("w1");
  net.connect(cn, wn);

  service::JobSpec spec = planted_job("alpha", "placeholder", 4, 4);
  const u128 space = keyspace::space_size(spec.request.charset.size(), 4, 4);
  const std::string key = key_at(spec, space - u128(1));
  spec.request.target_hexes = {hash::Md5::digest(key).to_hex()};
  service::JobServiceConfig scfg;
  scfg.local_scan = false;
  service::JobManager manager(scfg);
  const auto id = manager.submit(spec);

  SimnetTransport ct(net, cn);
  SimnetTransport wt(net, wn);
  CoordinatorConfig ccfg;
  ccfg.lease_s = 1.0;
  ccfg.heartbeat_s = 0.25;
  ccfg.idle_retry_s = 0.05;
  ccfg.reap_interval_s = 0.05;
  ccfg.max_lease = u128(1) << 16;
  Coordinator coordinator(manager, ct, ccfg);
  coordinator.start("coordinator");

  WorkerConfig wcfg;
  wcfg.name = "w1";
  wcfg.threads = 2;
  wcfg.recv_timeout_s = 0.75;
  wcfg.reconnect_attempts = 10000;
  wcfg.reconnect_backoff_s = 0.02;
  wcfg.reconnect_backoff_max_s = 0.3;
  WorkerDaemon worker(wt, wcfg);
  std::thread t([&] { worker.run("coordinator"); });

  // Let the sweep start, then degrade the link to 40% message loss.
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (manager.status(id).scanned == u128(0) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GT(manager.status(id).scanned, u128(0));
  }
  net.set_link_loss(cn, wn, 0.4);

  // Keep the weather up until the dispatch tier demonstrably felt it
  // (the worker retransmitted, or a session died and was reopened),
  // then heal. A reopened session alone is no witness any more: it
  // needs every retransmit of one request lost in a row.
  const auto felt_loss = [&] {
    return worker.stats().retransmits > 0 ||
           coordinator.stats().sessions_opened >= 2;
  };
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!felt_loss() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_TRUE(felt_loss());
  }
  net.set_link_loss(cn, wn, 0.0);

  ASSERT_TRUE(manager.wait(id, 180.0));
  worker.stop();
  t.join();
  coordinator.stop();

  const service::JobSnapshot s = manager.status(id);
  EXPECT_EQ(s.state, service::JobState::kDone);
  EXPECT_EQ(s.targets_found, 1u);
  ASSERT_EQ(s.found.size(), 1u);
  EXPECT_EQ(s.found[0].second, key);
  EXPECT_TRUE(felt_loss());  // the loss actually bit
}

// ---------------------------------------------------------------------------
// The shipped defaults at 1% loss: an untuned WorkerConfig heals every
// lost frame by retransmit on the live session. Each drop used to cost
// a whole recv_timeout_s (10 s) before a reconnect.

TEST(ChaosLink, DefaultConfigHealsOnePercentLossWithoutReconnecting) {
  service::JobSpec spec = planted_job("alpha", "placeholder", 4, 4);
  const u128 space = keyspace::space_size(spec.request.charset.size(), 4, 4);
  const std::string key = key_at(spec, space - u128(1));
  spec.request.target_hexes = {hash::Md5::digest(key).to_hex()};
  service::JobServiceConfig scfg;
  scfg.local_scan = false;
  service::JobManager manager(scfg);
  const auto id = manager.submit(spec);

  TcpTransport tcp;
  CoordinatorConfig ccfg;
  // Small leases: about 110 grant/retire round trips, so 1% loss each
  // way has hundreds of frames to bite on.
  ccfg.max_lease = u128(4096);
  Coordinator coordinator(manager, tcp, ccfg);
  coordinator.start("127.0.0.1:0");

  FaultPlan plan;
  plan.send.drop = 0.01;
  plan.recv.drop = 0.01;
  // The injector rolls once per frame, and frames alternate request and
  // reply, so the drops do not depend on timing: seed 17 drops the
  // 28th, 127th and 180th frame of the roughly 450 this run passes.
  FaultInjectingTransport faulty(tcp, plan, /*seed=*/17);
  WorkerConfig wcfg;
  wcfg.name = "w1";
  WorkerDaemon worker(faulty, wcfg);

  const auto start = std::chrono::steady_clock::now();
  std::thread t([&] { worker.run(coordinator.address()); });
  const bool done = manager.wait(id, 60.0);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  worker.stop();
  t.join();
  coordinator.stop();

  ASSERT_TRUE(done);
  EXPECT_GT(faulty.stats().dropped, 0u);
  EXPECT_EQ(worker.stats().reconnects, 0u);
  const service::JobSnapshot s = manager.status(id);
  EXPECT_EQ(s.state, service::JobState::kDone);
  EXPECT_EQ(s.targets_found, 1u);
  ASSERT_EQ(s.found.size(), 1u);
  EXPECT_EQ(s.found[0].second, key);
  EXPECT_LT(wall_s, WorkerConfig{}.recv_timeout_s);
}

// ---------------------------------------------------------------------------
// A found report the coordinator did not apply must never let its lease
// retire as covered: the worker's sweeper already counts the digest as
// found, so a retire would journal the key's interval as scanned with
// the key lost. A fake coordinator answers the report with the error a
// garbled frame draws.

TEST(ChaosHealth, UnappliedFoundReportNeverRetiresTheLease) {
  TcpTransport transport;
  auto listener = transport.listen("127.0.0.1:0");
  const service::JobSpec spec = planted_job("alpha", "dog", 1, 3);

  WorkerConfig wcfg;
  wcfg.name = "w1";
  wcfg.recv_timeout_s = 0.5;
  wcfg.reconnect_attempts = 10000;
  wcfg.reconnect_backoff_s = 0.01;
  wcfg.reconnect_backoff_max_s = 0.05;
  WorkerDaemon worker(transport, wcfg);
  std::thread t([&] { worker.run(listener->address()); });

  // Returns what the worker sent after the error, nullopt when it
  // dropped the session instead. Never returns early past the join.
  const auto serve = [&]() -> std::optional<std::string> {
    auto conn = listener->accept(10.0);
    if (conn == nullptr) return "no connection";
    const auto expect = [&](const char* type) {
      const auto body = conn->recv(10.0);
      return body.has_value() && message_type(json::parse(*body)) == type;
    };
    if (!expect("hello")) return "no hello";
    WelcomeMsg welcome;
    welcome.lease_s = 30.0;
    welcome.heartbeat_s = 10.0;
    welcome.holder = "w1#1";
    conn->send(encode(welcome));

    if (!expect("lease_req")) return "no lease request";
    LeaseGrantWire grant;
    grant.lease_id = 1;
    grant.job = 1;
    grant.job_name = spec.name;
    grant.end = keyspace::space_size(spec.request.charset.size(), 1, 3);
    grant.has_spec = true;
    grant.spec = spec;
    conn->send(encode(grant));

    if (!expect("found")) return "no found report";
    conn->send(encode(ErrorMsg{"bad message: truncated"}));
    try {
      return conn->recv(2.0);
    } catch (const TransportError&) {
      return std::nullopt;  // the worker dropped the session
    }
  };
  const std::optional<std::string> after_error = serve();
  worker.stop();
  t.join();
  listener->close();

  // A retire here would journal the key's interval as covered.
  EXPECT_FALSE(after_error.has_value()) << after_error->substr(0, 40);
  EXPECT_GE(worker.stats().reconnects, 1u);
  EXPECT_EQ(worker.stats().leases_completed, 0u);
}

// ---------------------------------------------------------------------------
// A retire that draws an error instead of an ack left its lease live on
// the coordinator, where the session's heartbeats would renew it
// forever. The worker must drop the session so the lease is revoked and
// its interval re-dispatched.

/// Worker-side transport that answers the first retire itself with the
/// error a garbled frame draws; the coordinator never hears that retire.
class RetireErrorTransport : public Transport {
 public:
  explicit RetireErrorTransport(Transport& inner) : inner_(inner) {}

  std::unique_ptr<Listener> listen(const std::string& address) override {
    return inner_.listen(address);
  }
  std::unique_ptr<Connection> connect(const std::string& address,
                                      double timeout_s) override {
    return std::make_unique<Conn>(inner_.connect(address, timeout_s),
                                  injected_);
  }
  double now_s() const override { return inner_.now_s(); }
  void sleep_s(double seconds) const override { inner_.sleep_s(seconds); }

  bool injected() const { return injected_.load(); }

 private:
  /// The worker sends and receives on one thread, so `reply_` needs no
  /// lock.
  class Conn : public Connection {
   public:
    Conn(std::unique_ptr<Connection> inner, std::atomic<bool>& injected)
        : inner_(std::move(inner)), injected_(injected) {}

    void send(const std::string& frame) override {
      if (!injected_.load() &&
          message_type(json::parse(frame)) == "retire") {
        injected_.store(true);
        reply_ = encode(ErrorMsg{"bad message: truncated"});
        return;
      }
      inner_->send(frame);
    }
    std::optional<std::string> recv(double timeout_s) override {
      if (reply_.has_value()) {
        std::optional<std::string> out;
        out.swap(reply_);
        return out;
      }
      return inner_->recv(timeout_s);
    }
    void close() override { inner_->close(); }
    std::string peer() const override { return inner_->peer(); }

   private:
    std::unique_ptr<Connection> inner_;
    std::atomic<bool>& injected_;
    std::optional<std::string> reply_;
  };

  Transport& inner_;
  std::atomic<bool> injected_{false};
};

TEST(ChaosHealth, NonAckRetireReplyRedispatchesTheLease) {
  // A target outside the key space: the job is done only once every
  // interval is covered, the errored retire's interval included.
  service::JobSpec spec = planted_job("alpha", "zzzzz", 1, 3);
  service::JobServiceConfig scfg;
  scfg.local_scan = false;
  service::JobManager manager(scfg);
  const auto id = manager.submit(spec);

  TcpTransport tcp;
  CoordinatorConfig ccfg;
  ccfg.lease_s = 60.0;  // only a revoke, never the reaper, frees the lease
  ccfg.heartbeat_s = 0.25;
  ccfg.idle_retry_s = 0.05;
  ccfg.max_lease = u128(4096);
  Coordinator coordinator(manager, tcp, ccfg);
  coordinator.start("127.0.0.1:0");

  RetireErrorTransport faulty(tcp);
  WorkerConfig wcfg;
  wcfg.name = "w1";
  wcfg.reconnect_attempts = 100;
  wcfg.reconnect_backoff_s = 0.01;
  wcfg.reconnect_backoff_max_s = 0.05;
  WorkerDaemon worker(faulty, wcfg);
  std::thread t([&] { worker.run(coordinator.address()); });

  const bool done = manager.wait(id, 30.0);
  worker.stop();
  t.join();
  coordinator.stop();

  ASSERT_TRUE(done) << "the errored retire's lease was never re-dispatched";
  EXPECT_TRUE(faulty.injected());
  const service::JobSnapshot s = manager.status(id);
  EXPECT_EQ(s.state, service::JobState::kDone);
  EXPECT_EQ(s.scanned, s.space);
  EXPECT_EQ(worker.stats().reconnects, 1u);
  EXPECT_EQ(manager.lease_count(), 0u);
}

// ---------------------------------------------------------------------------
// Verified founds + health lifecycle, end to end: a lying client
// reports forged preimages, earns strikes into quarantine, and its
// bogus results never reach the journal or another worker; an honest
// worker still completes the job.

TEST(ChaosHealth, ForgedFoundsAreStrikedQuarantinedAndNeverJournaled) {
  const std::string journal =
      (std::filesystem::temp_directory_path() / "gks_chaos_forged.jsonl")
          .string();
  std::filesystem::remove(journal);

  TcpTransport transport;
  {
    service::JobServiceConfig scfg;
    scfg.local_scan = false;
    scfg.journal_path = journal;
    service::JobManager manager(scfg);
    const auto id = manager.submit(planted_job("alpha", "dog", 1, 4));
    const std::string target_hex = hash::Md5::digest("dog").to_hex();

    CoordinatorConfig ccfg;
    ccfg.lease_s = 1.0;
    ccfg.heartbeat_s = 0.25;
    ccfg.idle_retry_s = 0.05;
    ccfg.reap_interval_s = 0.05;
    ccfg.max_lease = u128(1) << 16;
    ccfg.quarantine_s = 30.0;  // long enough to observe the state
    Coordinator coordinator(manager, transport, ccfg);
    coordinator.start("127.0.0.1:0");

    // The liar: a raw protocol client that leases honestly but reports
    // keys that do not hash to the digest it claims.
    {
      auto conn = transport.connect(coordinator.address(), 5.0);
      HelloMsg hello;
      hello.name = "liar";
      conn->send(encode(hello));
      auto welcome = conn->recv(5.0);
      ASSERT_TRUE(welcome.has_value());
      ASSERT_EQ(message_type(json::parse(*welcome)), "welcome");

      conn->send(encode(LeaseRequestMsg{}));
      auto reply = conn->recv(5.0);
      ASSERT_TRUE(reply.has_value());
      const json::Value lease_v = json::parse(*reply);
      ASSERT_EQ(message_type(lease_v), "lease");
      const LeaseGrantWire grant = lease_grant_from_json(lease_v);

      // Three forged reports at strike weight 2.0 cross the default
      // quarantine threshold of 6.0.
      for (int i = 0; i < 3; ++i) {
        FoundMsg forged;
        forged.lease_id = grant.lease_id;
        forged.digest = target_hex;
        forged.key = "bogus" + std::to_string(i);
        conn->send(encode(forged));
        auto ack_body = conn->recv(5.0);
        ASSERT_TRUE(ack_body.has_value());
        const AckMsg ack = ack_from_json(json::parse(*ack_body));
        EXPECT_FALSE(ack.ok);
        EXPECT_NE(ack.error.find("verification"), std::string::npos);
      }

      // The manager never counted the lies.
      EXPECT_EQ(manager.status(id).targets_found, 0u);

      // Quarantined: the next lease request draws idle, not work.
      conn->send(encode(LeaseRequestMsg{}));
      auto idle_body = conn->recv(5.0);
      ASSERT_TRUE(idle_body.has_value());
      EXPECT_EQ(message_type(json::parse(*idle_body)), "idle");

      // The health ledger tells the story, and the status verb carries
      // it to clients.
      conn->send(encode(StatusMsg{}));
      auto status_body = conn->recv(5.0);
      ASSERT_TRUE(status_body.has_value());
      const StatusRespMsg status =
          status_resp_from_json(json::parse(*status_body));
      bool saw_liar = false;
      for (const WorkerHealthWire& w : status.workers) {
        if (w.name != "liar") continue;
        saw_liar = true;
        EXPECT_EQ(w.state, "quarantined");
        EXPECT_EQ(w.forged_founds, 3u);
        EXPECT_GE(w.score, 6.0);
      }
      EXPECT_TRUE(saw_liar);
      conn->send(encode(ByeMsg{}));
      conn->recv(5.0);
      conn->close();
    }

    EXPECT_EQ(coordinator.stats().forged_founds, 3u);
    EXPECT_GE(coordinator.stats().workers_quarantined, 1u);

    // An honest worker is untouched by the liar's history and finishes
    // the job with the real key.
    WorkerConfig wcfg;
    wcfg.name = "honest";
    wcfg.threads = 2;
    WorkerDaemon worker(transport, wcfg);
    std::thread t([&] { worker.run(coordinator.address()); });
    ASSERT_TRUE(manager.wait(id, 60.0));
    worker.stop();
    t.join();
    coordinator.stop();

    const service::JobSnapshot s = manager.status(id);
    EXPECT_EQ(s.state, service::JobState::kDone);
    EXPECT_EQ(s.targets_found, 1u);
    ASSERT_EQ(s.found.size(), 1u);
    EXPECT_EQ(s.found[0].second, "dog");
  }

  // The forged keys never reached the journal.
  std::ifstream in(journal);
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_EQ(contents.str().find("bogus"), std::string::npos);
  EXPECT_NE(contents.str().find("dog"), std::string::npos);
  std::filesystem::remove(journal);
}

// An ejected worker's hello is refused until probation passes; it then
// re-enters degraded rather than clean.
TEST(ChaosHealth, EjectedWorkerIsRefusedUntilProbation) {
  service::JobServiceConfig scfg;
  scfg.local_scan = false;
  service::JobManager manager(scfg);
  manager.submit(planted_job("alpha", "dog", 1, 4));
  const std::string target_hex = hash::Md5::digest("dog").to_hex();

  TcpTransport transport;
  CoordinatorConfig ccfg;
  ccfg.lease_s = 1.0;
  ccfg.heartbeat_s = 0.25;
  ccfg.idle_retry_s = 0.05;
  ccfg.reap_interval_s = 0.05;
  ccfg.quarantine_s = 0.3;  // probation = 0.6s keeps the test quick
  Coordinator coordinator(manager, transport, ccfg);
  coordinator.start("127.0.0.1:0");

  // Five forged founds at weight 2.0 push straight past the default
  // ejection threshold of 10.0.
  {
    auto conn = transport.connect(coordinator.address(), 5.0);
    HelloMsg hello;
    hello.name = "liar";
    conn->send(encode(hello));
    ASSERT_TRUE(conn->recv(5.0).has_value());
    conn->send(encode(LeaseRequestMsg{}));
    auto reply = conn->recv(5.0);
    ASSERT_TRUE(reply.has_value());
    const LeaseGrantWire grant =
        lease_grant_from_json(json::parse(*reply));
    for (int i = 0; i < 5; ++i) {
      FoundMsg forged;
      forged.lease_id = grant.lease_id;
      forged.digest = target_hex;
      forged.key = "nope" + std::to_string(i);
      conn->send(encode(forged));
      ASSERT_TRUE(conn->recv(5.0).has_value());
    }
    conn->close();
  }
  ASSERT_GE(coordinator.stats().workers_ejected, 1u);

  // Inside probation: hello is refused outright.
  {
    auto conn = transport.connect(coordinator.address(), 5.0);
    HelloMsg hello;
    hello.name = "liar";
    conn->send(encode(hello));
    auto reply = conn->recv(5.0);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(message_type(json::parse(*reply)), "error");
    conn->close();
  }

  // After probation: readmitted, but degraded — one session's good
  // behavior away from ok, one offence away from quarantine.
  std::this_thread::sleep_for(std::chrono::milliseconds(700));
  {
    auto conn = transport.connect(coordinator.address(), 5.0);
    HelloMsg hello;
    hello.name = "liar";
    conn->send(encode(hello));
    auto reply = conn->recv(5.0);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(message_type(json::parse(*reply)), "welcome");
    conn->send(encode(ByeMsg{}));
    conn->recv(5.0);
    conn->close();
  }
  bool saw = false;
  for (const WorkerHealthWire& w : coordinator.worker_health()) {
    if (w.name != "liar") continue;
    saw = true;
    EXPECT_EQ(w.state, "degraded");
  }
  EXPECT_TRUE(saw);
  coordinator.stop();
}

}  // namespace
}  // namespace gks::dist
