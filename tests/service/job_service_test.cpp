#include "service/job_manager.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "hash/md5.h"
#include "hash/sha1.h"
#include "support/error.h"

namespace gks::service {
namespace {

using namespace std::chrono_literals;

JobSpec md5_job(const std::string& name, const std::string& key,
                unsigned max_length = 4) {
  JobSpec spec;
  spec.name = name;
  spec.request.algorithm = hash::Algorithm::kMd5;
  spec.request.target_hexes = {hash::Md5::digest(key).to_hex()};
  spec.request.charset = keyspace::Charset::lower();
  spec.request.min_length = 1;
  spec.request.max_length = max_length;
  return spec;
}

/// The digest of a key outside the job's charset — no candidate can
/// produce it, so the job sweeps its whole space.
JobSpec unfindable_job(const std::string& name, unsigned max_length) {
  return md5_job(name, "0000", max_length);
}

/// Polls until the job has retired some coverage (returns false on
/// timeout) — used to catch jobs "mid-run".
bool wait_for_progress(const JobManager& m, JobId id,
                       double timeout_s = 30.0) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (m.status(id).scanned > u128(0)) return true;
    std::this_thread::sleep_for(1ms);
  }
  return false;
}

TEST(JobService, SingleJobRunsToDone) {
  JobServiceConfig config;
  config.workers = 2;
  JobManager manager(config);
  const JobId id = manager.submit(md5_job("solo", "dog"));
  ASSERT_TRUE(manager.wait(id, 120));
  const JobSnapshot s = manager.status(id);
  EXPECT_EQ(s.state, JobState::kDone);
  EXPECT_EQ(s.name, "solo");
  EXPECT_EQ(s.targets_total, 1u);
  EXPECT_EQ(s.targets_found, 1u);
  ASSERT_EQ(s.found.size(), 1u);
  EXPECT_EQ(s.found[0].second, "dog");
  EXPECT_GT(s.scanned, u128(0));
  EXPECT_LE(s.scanned, s.space);
  EXPECT_GE(s.intervals_issued, 1u);
  EXPECT_EQ(s.intervals_issued, s.intervals_retired);
  EXPECT_GT(s.elapsed_s, 0.0);
  EXPECT_GT(s.keys_per_s, 0.0);
  EXPECT_EQ(s.eta_s, 0.0);  // terminal jobs have no ETA
}

TEST(JobService, UnfindableTargetSweepsWholeSpaceExactlyOnce) {
  JobServiceConfig config;
  config.workers = 3;
  config.max_quantum = u128(16384);  // many quanta, many workers
  JobManager manager(config);
  const JobId id = manager.submit(unfindable_job("miss", 4));
  ASSERT_TRUE(manager.wait(id, 120));
  const JobSnapshot s = manager.status(id);
  EXPECT_EQ(s.state, JobState::kDone);
  EXPECT_EQ(s.targets_found, 0u);
  // The whole space was retired, and no id twice: scanned is the sum
  // of *newly covered* ids per quantum, so any double-scan would make
  // it fall short of the space.
  EXPECT_EQ(s.scanned, s.space);
  EXPECT_DOUBLE_EQ(s.progress(), 1.0);
}

TEST(JobService, MultiTargetBatchWithDuplicates) {
  JobServiceConfig config;
  config.workers = 2;
  JobManager manager(config);
  JobSpec spec = md5_job("batch", "abc");
  spec.request.target_hexes = {
      hash::Md5::digest("abc").to_hex(), hash::Md5::digest("zzzz").to_hex(),
      hash::Md5::digest("abc").to_hex(),  // duplicate slot
      hash::Md5::digest("q").to_hex()};
  const JobId id = manager.submit(std::move(spec));
  ASSERT_TRUE(manager.wait(id, 120));
  const JobSnapshot s = manager.status(id);
  EXPECT_EQ(s.state, JobState::kDone);
  EXPECT_EQ(s.targets_total, 4u);
  EXPECT_EQ(s.targets_found, 4u);   // the duplicate resolves both slots
  EXPECT_EQ(s.found.size(), 3u);    // three unique digests recovered
}

TEST(JobService, SaltedAndSha1JobsRunThroughTheSamePath) {
  JobServiceConfig config;
  config.workers = 2;
  JobManager manager(config);

  JobSpec salted;
  salted.name = "salted";
  salted.request.algorithm = hash::Algorithm::kMd5;
  salted.request.salt = {hash::SaltPosition::kSuffix, "pepper"};
  salted.request.target_hexes = {hash::Md5::digest("catspepper").to_hex()};
  salted.request.charset = keyspace::Charset::lower();
  salted.request.min_length = 1;
  salted.request.max_length = 4;

  JobSpec sha = md5_job("sha", "fish");
  sha.request.algorithm = hash::Algorithm::kSha1;
  sha.request.target_hexes = {hash::Sha1::digest("fish").to_hex()};

  const JobId a = manager.submit(std::move(salted));
  const JobId b = manager.submit(std::move(sha));
  ASSERT_TRUE(manager.wait(a, 120));
  ASSERT_TRUE(manager.wait(b, 120));
  EXPECT_EQ(manager.status(a).found.at(0).second, "cats");
  EXPECT_EQ(manager.status(b).found.at(0).second, "fish");
}

TEST(JobService, SubmitValidation) {
  JobServiceConfig config;
  config.workers = 1;
  JobManager manager(config);
  EXPECT_THROW(manager.submit(JobSpec{}), InvalidArgument);  // empty name

  JobSpec bad_weight = md5_job("w", "dog");
  bad_weight.weight = 0;
  EXPECT_THROW(manager.submit(std::move(bad_weight)), InvalidArgument);

  const JobId id = manager.submit(unfindable_job("dup", 7));
  EXPECT_THROW(manager.submit(unfindable_job("dup", 7)), InvalidArgument);
  manager.cancel(id);
  ASSERT_TRUE(manager.wait(id, 60));
  // Terminal jobs free their name.
  const JobId again = manager.submit(md5_job("dup", "a", 2));
  EXPECT_NE(again, id);
  EXPECT_EQ(manager.find_job("dup"), again);
  ASSERT_TRUE(manager.wait(again, 60));
}

TEST(JobService, UnknownIdThrows) {
  JobServiceConfig config;
  config.workers = 1;
  JobManager manager(config);
  EXPECT_THROW(manager.status(42), InvalidArgument);
  EXPECT_THROW(manager.cancel(42), InvalidArgument);
  EXPECT_THROW(manager.pause(42), InvalidArgument);
  EXPECT_THROW(manager.resume(42), InvalidArgument);
  EXPECT_FALSE(manager.find_job("nobody").has_value());
}

TEST(JobService, InvalidRequestIsRejectedAtSubmit) {
  JobServiceConfig config;
  config.workers = 1;
  JobManager manager(config);
  JobSpec spec = md5_job("bad", "dog");
  spec.request.target_hexes = {"zz-not-hex"};
  EXPECT_THROW(manager.submit(std::move(spec)), Error);
  EXPECT_TRUE(manager.snapshot_all().empty());  // nothing half-registered
}

TEST(JobService, CancelMidRunStopsPromptly) {
  JobServiceConfig config;
  config.workers = 2;
  JobManager manager(config);
  // Length 8 over 26 chars: ~2e11 candidates, unfinishable here.
  const JobId id = manager.submit(unfindable_job("forever", 8));
  ASSERT_TRUE(wait_for_progress(manager, id));
  manager.cancel(id);
  ASSERT_TRUE(manager.wait(id, 60));
  const JobSnapshot s = manager.status(id);
  EXPECT_EQ(s.state, JobState::kCancelled);
  EXPECT_GT(s.scanned, u128(0));
  EXPECT_LT(s.scanned, s.space);
  EXPECT_LT(s.progress(), 1.0);
  // Cancel of an already-terminal job is a no-op.
  manager.cancel(id);
  EXPECT_EQ(manager.status(id).state, JobState::kCancelled);
}

TEST(JobService, PauseFreezesProgressAndResumeCompletes) {
  JobServiceConfig config;
  config.workers = 2;
  config.max_quantum = u128(65536);  // quick preemption
  JobManager manager(config);
  const JobId id = manager.submit(md5_job("pausable", "zzzzy", 5));
  ASSERT_TRUE(wait_for_progress(manager, id));
  manager.pause(id);
  // Let in-flight quanta drain back to the pending queue.
  std::this_thread::sleep_for(100ms);
  const u128 frozen = manager.status(id).scanned;
  EXPECT_EQ(manager.status(id).state, JobState::kPaused);
  std::this_thread::sleep_for(150ms);
  EXPECT_EQ(manager.status(id).scanned, frozen);  // no work while paused
  EXPECT_FALSE(manager.wait(id, 0.05));           // wait times out
  manager.resume(id);
  ASSERT_TRUE(manager.wait(id, 120));
  const JobSnapshot s = manager.status(id);
  EXPECT_EQ(s.state, JobState::kDone);
  ASSERT_EQ(s.found.size(), 1u);
  EXPECT_EQ(s.found[0].second, "zzzzy");
  // Pausing never loses work: coverage grew monotonically.
  EXPECT_GE(s.scanned, frozen);
}

TEST(JobService, DestructorLeavesUnfinishedJobsResumable) {
  namespace fs = std::filesystem;
  const std::string journal =
      (fs::temp_directory_path() / "gks_service_dtor.jsonl").string();
  fs::remove(journal);
  {
    JobServiceConfig config;
    config.workers = 2;
    config.journal_path = journal;
    JobManager manager(config);
    const JobId id = manager.submit(unfindable_job("unfinished", 8));
    ASSERT_TRUE(wait_for_progress(manager, id));
    // Manager destroyed with the job still running.
  }
  const auto recovered = JobStore::load(journal);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_FALSE(recovered[0].final_state.has_value());
  EXPECT_GT(recovered[0].journaled, u128(0));
  // Exactly-once: what was journaled is what was covered.
  EXPECT_EQ(recovered[0].journaled, recovered[0].scanned.covered());
  fs::remove(journal);
}

TEST(JobService, FairShareSmallHighPriorityBeatsLargeLowPrioritySweep) {
  JobServiceConfig config;
  config.workers = 2;
  config.max_quantum = u128(32768);  // fine-grained interleaving
  JobManager manager(config);
  // Large, low priority: 12.3M candidates ending at "zzzzy"-ish depth.
  JobSpec bulk = unfindable_job("bulk", 5);
  bulk.priority = 0;
  // Small, high priority: 475k candidates, key late in the space.
  JobSpec vip = md5_job("vip", "zzzy", 4);
  vip.priority = 3;  // 8x the share
  const JobId bulk_id = manager.submit(std::move(bulk));
  const JobId vip_id = manager.submit(std::move(vip));
  ASSERT_TRUE(manager.wait(vip_id, 120));
  // The acceptance demo: the small high-priority job completes before
  // the big low-priority sweep is half way.
  const double bulk_progress = manager.status(bulk_id).progress();
  EXPECT_LT(bulk_progress, 0.5);
  const JobSnapshot vip_snap = manager.status(vip_id);
  EXPECT_EQ(vip_snap.state, JobState::kDone);
  EXPECT_EQ(vip_snap.found.at(0).second, "zzzy");
  manager.cancel(bulk_id);
  ASSERT_TRUE(manager.wait(bulk_id, 60));
}

TEST(JobService, EightJobMixedBatchDemo) {
  namespace fs = std::filesystem;
  const std::string journal =
      (fs::temp_directory_path() / "gks_service_demo.jsonl").string();
  fs::remove(journal);

  // Phase 1: start the to-be-resumed job and kill the manager mid-run.
  {
    JobServiceConfig config;
    config.workers = 2;
    config.max_quantum = u128(16384);
    config.journal_path = journal;
    JobManager first(config);
    const JobId seed = first.submit(md5_job("seed", "zzzzy", 5));
    ASSERT_TRUE(wait_for_progress(first, seed));
  }
  {
    const auto recovered = JobStore::load(journal);
    ASSERT_EQ(recovered.size(), 1u);
    ASSERT_FALSE(recovered[0].final_state.has_value());
    ASSERT_GT(recovered[0].journaled, u128(0));
  }

  // Phase 2: resume it alongside seven fresh jobs of mixed shapes.
  JobServiceConfig config;
  config.workers = 3;
  config.max_quantum = u128(65536);
  config.journal_path = journal;
  JobManager manager(config);
  ASSERT_EQ(manager.resume_from(journal), 1u);
  const JobId seed_id = manager.find_job("seed").value();

  JobSpec vip = md5_job("vip", "dog", 4);
  vip.priority = 3;
  JobSpec bulk = md5_job("bulk", "zzzzy", 5);
  bulk.priority = 0;
  JobSpec salted;
  salted.name = "salted";
  salted.request.algorithm = hash::Algorithm::kMd5;
  salted.request.salt = {hash::SaltPosition::kSuffix, "pepper"};
  salted.request.target_hexes = {hash::Md5::digest("catspepper").to_hex()};
  salted.request.charset = keyspace::Charset::lower();
  salted.request.min_length = 1;
  salted.request.max_length = 4;
  JobSpec sha = md5_job("sha", "fish", 4);
  sha.request.algorithm = hash::Algorithm::kSha1;
  sha.request.target_hexes = {hash::Sha1::digest("fish").to_hex()};
  JobSpec multi = md5_job("multi", "abc", 4);
  multi.request.target_hexes = {hash::Md5::digest("abc").to_hex(),
                                hash::Md5::digest("zzzz").to_hex(),
                                hash::Md5::digest("abc").to_hex()};
  JobSpec tiny;
  tiny.name = "tiny";
  tiny.request.target_hexes = {hash::Md5::digest("42").to_hex()};
  tiny.request.charset = keyspace::Charset::digits();
  tiny.request.min_length = 1;
  tiny.request.max_length = 3;

  const JobId vip_id = manager.submit(std::move(vip));
  const JobId bulk_id = manager.submit(std::move(bulk));
  const JobId cancel_id = manager.submit(unfindable_job("cancelme", 8));
  const JobId salted_id = manager.submit(std::move(salted));
  const JobId sha_id = manager.submit(std::move(sha));
  const JobId multi_id = manager.submit(std::move(multi));
  const JobId tiny_id = manager.submit(std::move(tiny));

  // Cancel one job mid-run.
  ASSERT_TRUE(wait_for_progress(manager, cancel_id));
  manager.cancel(cancel_id);

  // Fairness: the small high-priority job completes before the large
  // low-priority sweep is half done.
  ASSERT_TRUE(manager.wait(vip_id, 120));
  EXPECT_LT(manager.status(bulk_id).progress(), 0.5);

  for (const JobId id :
       {seed_id, vip_id, bulk_id, cancel_id, salted_id, sha_id, multi_id,
        tiny_id}) {
    ASSERT_TRUE(manager.wait(id, 240));
  }
  manager.wait_all();

  const auto expect_done = [&](JobId id, const std::string& key) {
    const JobSnapshot s = manager.status(id);
    EXPECT_EQ(s.state, JobState::kDone) << s.name;
    ASSERT_FALSE(s.found.empty()) << s.name;
    EXPECT_EQ(s.found[0].second, key) << s.name;
    EXPECT_EQ(s.targets_found, s.targets_total) << s.name;
  };
  expect_done(seed_id, "zzzzy");
  expect_done(vip_id, "dog");
  expect_done(bulk_id, "zzzzy");
  expect_done(salted_id, "cats");
  expect_done(sha_id, "fish");
  expect_done(tiny_id, "42");
  expect_done(multi_id, "abc");
  EXPECT_EQ(manager.status(multi_id).targets_found, 3u);
  EXPECT_EQ(manager.status(cancel_id).state, JobState::kCancelled);

  // No interval scanned twice after the resume: for every job the
  // journaled id count equals the distinct covered count.
  for (const auto& rec : JobStore::load(journal)) {
    EXPECT_EQ(rec.journaled, rec.scanned.covered()) << rec.spec.name;
  }
  fs::remove(journal);
}

TEST(JobService, LocalThreadsAndARemoteHolderShareOneJob) {
  namespace fs = std::filesystem;
  const std::string journal =
      (fs::temp_directory_path() / "gks_service_mixed.jsonl").string();
  fs::remove(journal);

  // Local scan threads and a lease() caller work the same job through
  // the one dispatch path. A second, unfindable target keeps the job
  // open until the whole space is swept. The space is 26^5-sized so
  // that it lasts: two local threads drain it in tens of milliseconds
  // (a 26^4 job can be gone before the holder's first lease() call),
  // while the holder's first lease comes right after submit().
  JobSpec spec = md5_job("mixed", "mzzzz", 5);
  spec.request.target_hexes.push_back(hash::Md5::digest("0000").to_hex());
  const u128 space = core::MultiSweeper(spec.request).space_size();

  JobServiceConfig config;
  config.workers = 2;
  config.max_quantum = u128(16384);
  config.journal_path = journal;
  std::uint64_t remote_leases = 0;
  {
    JobManager manager(config);
    const JobId id = manager.submit(spec);

    // This thread is the remote holder: its own sweeper, every hit
    // reported before the retire, like WorkerDaemon.
    const core::MultiSweeper sweeper(spec.request);
    while (!manager.wait(id, 0)) {
      const auto grant = manager.lease("remote#1", u128(8192), 1e9);
      if (!grant.has_value()) {
        std::this_thread::sleep_for(1ms);
        continue;
      }
      std::vector<core::SweepHit> hits;
      const u128 tested = sweeper.scan(grant->interval, hits);
      for (const core::SweepHit& hit : hits) {
        EXPECT_NE(manager.report_found(grant->lease_id,
                                       hash::Md5::digest(hit.key).to_hex(),
                                       hit.key),
                  FoundOutcome::kForged);
      }
      EXPECT_TRUE(manager.retire_lease(grant->lease_id, tested, 0.001));
      ++remote_leases;
    }

    const JobSnapshot s = manager.status(id);
    EXPECT_EQ(s.state, JobState::kDone);
    EXPECT_EQ(s.scanned, space);
    EXPECT_EQ(s.targets_found, 1u);
    ASSERT_EQ(s.found.size(), 1u);
    EXPECT_EQ(s.found[0].second, "mzzzz");
    EXPECT_EQ(s.intervals_issued, s.intervals_retired);
    // Both kinds of holder took part.
    EXPECT_GT(remote_leases, 0u);
    EXPECT_GT(s.intervals_issued, remote_leases);
    EXPECT_EQ(manager.lease_count(), 0u);
  }

  const auto recovered = JobStore::load(journal);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].journaled, space);
  EXPECT_EQ(recovered[0].scanned.covered(), space);
  ASSERT_EQ(recovered[0].found.size(), 1u);  // journaled exactly once
  EXPECT_EQ(recovered[0].found[0].second, "mzzzz");
  fs::remove(journal);
}

}  // namespace
}  // namespace gks::service
