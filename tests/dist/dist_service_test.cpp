#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dist/coordinator.h"
#include "dist/simnet_transport.h"
#include "dist/tcp_transport.h"
#include "dist/worker_daemon.h"
#include "hash/md5.h"
#include "keyspace/keyspace_generator.h"
#include "service/job_manager.h"
#include "simnet/network.h"

namespace gks::dist {
namespace {

/// The key the sweep enumerates at dispatch id `id` — the same
/// prefix-fastest enumeration every backend uses, so a test can plant
/// a target at a chosen position of the id space (e.g. inside the
/// interval a particular lease will cover).
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

service::JobServiceConfig coordinator_only() {
  service::JobServiceConfig config;
  config.local_scan = false;
  return config;
}

/// Tight cadences so fault-injection tests spend milliseconds, not
/// minutes, waiting for deadlines.
CoordinatorConfig fast_coordinator() {
  CoordinatorConfig config;
  config.lease_s = 1.0;
  config.heartbeat_s = 0.25;
  config.idle_retry_s = 0.05;
  config.reap_interval_s = 0.05;
  config.max_lease = u128(1) << 20;  // force several leases per job
  return config;
}

bool wait_scanned(const service::JobManager& m, service::JobId id,
                  double timeout_s = 30.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (m.status(id).scanned > u128(0)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

// The acceptance shape: coordinator + workers connected over real TCP
// inside one process, cracking a planted key end to end.
TEST(DistService, TcpWorkersCrackPlantedKey) {
  service::JobManager manager(coordinator_only());
  const auto id = manager.submit(planted_job("alpha", "abc", 1, 4));

  TcpTransport transport;
  Coordinator coordinator(manager, transport, fast_coordinator());
  coordinator.start("127.0.0.1:0");

  WorkerConfig wcfg;
  wcfg.threads = 2;
  std::vector<std::unique_ptr<WorkerDaemon>> workers;
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    wcfg.name = "w" + std::to_string(i);
    workers.push_back(std::make_unique<WorkerDaemon>(transport, wcfg));
    // Capture the daemon, not the vector: the next push_back may
    // reallocate the vector while this thread reads it.
    WorkerDaemon* const worker = workers.back().get();
    threads.emplace_back([&, worker] { worker->run(coordinator.address()); });
  }

  ASSERT_TRUE(manager.wait(id, 60.0));
  for (auto& w : workers) w->stop();
  for (auto& t : threads) t.join();
  coordinator.stop();

  const service::JobSnapshot s = manager.status(id);
  EXPECT_EQ(s.state, service::JobState::kDone);
  EXPECT_EQ(s.targets_found, 1u);
  ASSERT_EQ(s.found.size(), 1u);
  EXPECT_EQ(s.found[0].second, "abc");
  EXPECT_GE(coordinator.stats().leases_granted, 1u);
  // Remote retires report their scan time; the job's busy accounting
  // (which sizes quanta in mixed local+remote mode) must see it.
  EXPECT_GT(s.busy_s, 0.0);
}

// A target added while worker sessions already cached the job's
// sweeper must still be found: the add bumps the job's target
// generation, in-flight leases are reclaimed and re-dispatched, and
// the next grant re-sends the spec so the worker rebuilds its sweeper.
// Without that propagation the worker keeps scanning the old target
// set, its retired intervals are journaled as covered, and the job
// completes "done" with the new key silently missed.
TEST(DistService, LiveTargetAddReachesCachedWorkerSweepers) {
  service::JobManager manager(coordinator_only());
  // The original target sits at the very end of the id space, so the
  // sweep must cover everything — several leases' worth.
  service::JobSpec spec = planted_job("alpha", "placeholder", 4, 4);
  const u128 space = keyspace::space_size(spec.request.charset.size(), 4, 4);
  const std::string first_key = key_at(spec, space - u128(1));
  spec.request.target_hexes = {hash::Md5::digest(first_key).to_hex()};
  const auto id = manager.submit(spec);

  TcpTransport transport;
  CoordinatorConfig ccfg = fast_coordinator();
  ccfg.max_lease = u128(1) << 16;  // ~7 leases over the 457k-id space
  Coordinator coordinator(manager, transport, ccfg);
  coordinator.start("127.0.0.1:0");

  WorkerConfig wcfg;
  wcfg.name = "w";
  wcfg.threads = 2;
  WorkerDaemon worker(transport, wcfg);
  std::thread wt([&] { worker.run(coordinator.address()); });

  // Wait until the worker has retired at least one lease — its session
  // has the spec and a cached sweeper — then grow the target set with
  // a key parked just before the first one, in keyspace the worker has
  // not reached yet.
  ASSERT_TRUE(wait_scanned(manager, id));
  const std::string second_key = key_at(spec, space - u128(2));
  const auto out =
      manager.add_targets(id, {hash::Md5::digest(second_key).to_hex()});
  EXPECT_EQ(out.attached, 1u);

  ASSERT_TRUE(manager.wait(id, 90.0));
  worker.stop();
  wt.join();
  coordinator.stop();

  const service::JobSnapshot s = manager.status(id);
  EXPECT_EQ(s.state, service::JobState::kDone);
  EXPECT_EQ(s.targets_found, 2u);
  ASSERT_EQ(s.found.size(), 2u);
  std::vector<std::string> keys;
  for (const auto& [digest, key] : s.found) keys.push_back(key);
  EXPECT_NE(std::find(keys.begin(), keys.end(), first_key), keys.end());
  EXPECT_NE(std::find(keys.begin(), keys.end(), second_key), keys.end());
}

// Job names are reusable once a job is terminal. A worker session that
// cached the first instance's sweeper (its target long since marked
// found) must rebuild for the resubmitted instance — otherwise every
// lease of the new job scans nothing, retires empty, and the
// grant/retire loop spins forever without the job ever completing.
TEST(DistService, ResubmittedJobNameRebuildsWorkerSweeper) {
  service::JobManager manager(coordinator_only());
  const auto first = manager.submit(planted_job("alpha", "abc", 1, 4));

  TcpTransport transport;
  Coordinator coordinator(manager, transport, fast_coordinator());
  coordinator.start("127.0.0.1:0");

  WorkerConfig wcfg;
  wcfg.name = "w";
  wcfg.threads = 2;
  WorkerDaemon worker(transport, wcfg);
  std::thread t([&] { worker.run(coordinator.address()); });

  ASSERT_TRUE(manager.wait(first, 60.0));
  EXPECT_EQ(manager.status(first).state, service::JobState::kDone);

  // Same name, same session, different key: the worker must notice the
  // new job id and not scan with the first instance's dead target.
  const auto second = manager.submit(planted_job("alpha", "dog", 1, 4));
  ASSERT_NE(first, second);
  ASSERT_TRUE(manager.wait(second, 60.0));

  worker.stop();
  t.join();
  coordinator.stop();

  const service::JobSnapshot s = manager.status(second);
  EXPECT_EQ(s.state, service::JobState::kDone);
  ASSERT_EQ(s.found.size(), 1u);
  EXPECT_EQ(s.found[0].second, "dog");
}

// The same Coordinator/WorkerDaemon code, byte for byte, over the
// virtual-time simnet backend — the point of the transport
// abstraction. Scale 1.0 keeps virtual protocol time aligned with the
// real CPU time the scans take.
TEST(DistService, SimnetWorkersShareTheSweep) {
  simnet::Network net(/*time_scale=*/1.0);
  const auto cn = net.add_node("coordinator");
  const auto w1n = net.add_node("w1");
  const auto w2n = net.add_node("w2");
  net.connect(cn, w1n);
  net.connect(cn, w2n);

  // The planted key sits at the very end of the id space, so the job
  // can only complete by sweeping everything — several leases' worth.
  service::JobSpec spec = planted_job("alpha", "placeholder", 4, 4);
  const u128 space = keyspace::space_size(spec.request.charset.size(), 4, 4);
  const std::string key = key_at(spec, space - u128(1));
  spec.request.target_hexes = {hash::Md5::digest(key).to_hex()};
  service::JobManager manager(coordinator_only());
  const auto id = manager.submit(spec);

  SimnetTransport ct(net, cn);
  SimnetTransport w1t(net, w1n);
  SimnetTransport w2t(net, w2n);
  CoordinatorConfig ccfg = fast_coordinator();
  ccfg.max_lease = u128(1) << 16;  // ~7 leases over the 457k-id space
  Coordinator coordinator(manager, ct, ccfg);
  coordinator.start("coordinator");

  WorkerConfig wcfg;
  wcfg.threads = 2;
  wcfg.name = "w1";
  WorkerDaemon w1(w1t, wcfg);
  wcfg.name = "w2";
  WorkerDaemon w2(w2t, wcfg);
  std::thread t1([&] { w1.run("coordinator"); });
  std::thread t2([&] { w2.run("coordinator"); });

  ASSERT_TRUE(manager.wait(id, 60.0));
  w1.stop();
  w2.stop();
  t1.join();
  t2.join();
  coordinator.stop();

  const service::JobSnapshot s = manager.status(id);
  EXPECT_EQ(s.state, service::JobState::kDone);
  EXPECT_EQ(s.targets_found, 1u);
  ASSERT_EQ(s.found.size(), 1u);
  EXPECT_EQ(s.found[0].second, key);
  EXPECT_GE(coordinator.stats().leases_granted, 2u);
}

// Fault injection, simnet flavor: a worker node goes dark mid-lease.
// The coordinator sees only missed heartbeats; the lease expires, the
// interval re-dispatches to the survivor, and the planted key — parked
// at the very end of the keyspace — is still found exactly once.
TEST(DistService, SimnetNodeDownMidLeaseRedispatches) {
  simnet::Network net(/*time_scale=*/1.0);
  const auto cn = net.add_node("coordinator");
  const auto w1n = net.add_node("w1");
  const auto w2n = net.add_node("w2");
  net.connect(cn, w1n);
  net.connect(cn, w2n);

  // The planted key lives at the tail of the FIRST lease's interval
  // ([0, max_lease)), which the victim checks out and takes to its
  // grave: the key can only be found after that interval expires and
  // re-dispatches to the survivor.
  service::JobSpec spec = planted_job("alpha", "placeholder", 5, 5);
  const std::string key = key_at(spec, (u128(1) << 20) - u128(1));
  spec.request.target_hexes = {hash::Md5::digest(key).to_hex()};
  service::JobManager manager(coordinator_only());
  const auto id = manager.submit(spec);

  SimnetTransport ct(net, cn);
  SimnetTransport w1t(net, w1n);
  SimnetTransport w2t(net, w2n);
  Coordinator coordinator(manager, ct, fast_coordinator());
  coordinator.start("coordinator");

  WorkerConfig wcfg;
  wcfg.threads = 2;
  wcfg.name = "victim";
  wcfg.recv_timeout_s = 1.0;      // notice the dead network quickly
  wcfg.reconnect_attempts = 0;    // and give up instead of retrying
  WorkerDaemon victim(w1t, wcfg);
  std::thread vt([&] { victim.run("coordinator"); });

  // Let the victim check out a lease, then pull its network plug.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (manager.lease_count() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(manager.lease_count(), 0u);
  net.set_node_down(w1n, true);

  wcfg.name = "survivor";
  wcfg.recv_timeout_s = 10.0;
  wcfg.reconnect_attempts = 5;
  WorkerDaemon survivor(w2t, wcfg);
  std::thread st([&] { survivor.run("coordinator"); });

  ASSERT_TRUE(manager.wait(id, 90.0));
  victim.stop();
  survivor.stop();
  vt.join();
  st.join();
  coordinator.stop();

  const service::JobSnapshot s = manager.status(id);
  EXPECT_EQ(s.state, service::JobState::kDone);
  EXPECT_EQ(s.targets_found, 1u);          // exactly once, despite overlap
  ASSERT_EQ(s.found.size(), 1u);
  EXPECT_EQ(s.found[0].second, key);
  EXPECT_GE(s.leases_expired, 1u);         // the fault actually happened
}

// A coordinator crash loses no acknowledged work: a new manager
// replays the journal, re-dispatches only the unscanned gaps, and the
// job still completes with the key found exactly once.
TEST(DistService, CoordinatorRestartResumesFromJournal) {
  const std::string journal =
      (std::filesystem::temp_directory_path() / "gks_dist_resume.jsonl")
          .string();
  std::filesystem::remove(journal);

  TcpTransport transport;
  {
    service::JobServiceConfig cfg = coordinator_only();
    cfg.journal_path = journal;
    service::JobManager manager(cfg);
    const auto id = manager.submit(planted_job("alpha", "zzzzz", 5, 5));

    CoordinatorConfig ccfg = fast_coordinator();
    ccfg.max_lease = u128(1) << 18;  // small leases: progress, not done
    Coordinator coordinator(manager, transport, ccfg);
    coordinator.start("127.0.0.1:0");

    WorkerConfig wcfg;
    wcfg.name = "w";
    wcfg.threads = 2;
    WorkerDaemon worker(transport, wcfg);
    std::thread wt([&] { worker.run(coordinator.address()); });
    ASSERT_TRUE(wait_scanned(manager, id));
    worker.stop();
    wt.join();
    coordinator.stop();
    EXPECT_NE(manager.status(id).state, service::JobState::kDone);
  }  // the "crash": manager destroyed mid-job, journal left behind

  service::JobServiceConfig cfg = coordinator_only();
  cfg.journal_path = journal + ".resumed";
  std::filesystem::remove(cfg.journal_path);
  service::JobManager manager(cfg);
  ASSERT_EQ(manager.resume_from(journal), 1u);
  const auto id = manager.find_job("alpha");
  ASSERT_TRUE(id.has_value());
  EXPECT_GT(manager.status(*id).scanned, u128(0));  // coverage survived

  Coordinator coordinator(manager, transport, fast_coordinator());
  coordinator.start("127.0.0.1:0");
  WorkerConfig wcfg;
  wcfg.name = "w2";
  wcfg.threads = 2;
  WorkerDaemon worker(transport, wcfg);
  std::thread wt([&] { worker.run(coordinator.address()); });

  ASSERT_TRUE(manager.wait(*id, 90.0));
  worker.stop();
  wt.join();
  coordinator.stop();

  const service::JobSnapshot s = manager.status(*id);
  EXPECT_EQ(s.state, service::JobState::kDone);
  EXPECT_EQ(s.targets_found, 1u);
  ASSERT_EQ(s.found.size(), 1u);
  EXPECT_EQ(s.found[0].second, "zzzzz");

  std::filesystem::remove(journal);
  std::filesystem::remove(cfg.journal_path);
}

// Session hygiene: a worker that says BYE releases its leases at once
// (no deadline wait), and the coordinator survives garbage clients.
TEST(DistService, GarbageClientDoesNotDisturbTheCoordinator) {
  service::JobManager manager(coordinator_only());
  manager.submit(planted_job("alpha", "abc", 1, 3));

  TcpTransport transport;
  Coordinator coordinator(manager, transport, fast_coordinator());
  coordinator.start("127.0.0.1:0");

  {
    auto conn = transport.connect(coordinator.address(), 5.0);
    conn->send("this is not json");
    const auto reply = conn->recv(5.0);
    ASSERT_TRUE(reply.has_value());
    EXPECT_NE(reply->find("\"error\""), std::string::npos);
  }

  // The coordinator still serves a well-behaved worker afterwards.
  WorkerConfig wcfg;
  wcfg.name = "w";
  wcfg.threads = 2;
  WorkerDaemon worker(transport, wcfg);
  std::thread wt([&] { worker.run(coordinator.address()); });
  ASSERT_TRUE(manager.wait(1, 60.0));
  worker.stop();
  wt.join();
  coordinator.stop();
  EXPECT_GE(coordinator.stats().protocol_errors, 1u);
}

}  // namespace
}  // namespace gks::dist
