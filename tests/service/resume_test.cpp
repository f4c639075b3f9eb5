// Checkpoint/resume: kill a job mid-sweep, reload the journal, and
// prove the union of scanned intervals covers the key space exactly
// once while the planted key is still found.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/multi_sweep.h"
#include "hash/md5.h"
#include "keyspace/codec.h"
#include "keyspace/space.h"
#include "service/job_manager.h"
#include "support/error.h"

namespace gks::service {
namespace {

using namespace std::chrono_literals;

class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    journal_ = (std::filesystem::temp_directory_path() /
                (std::string("gks_resume_") + info->name() + ".jsonl"))
                   .string();
    std::filesystem::remove(journal_);
  }
  void TearDown() override {
    std::filesystem::remove(journal_);
    std::filesystem::remove(journal_ + ".quarantine");
  }

  std::string journal_;
};

/// Waits until the job has retired at least `floor` ids.
void wait_for_coverage(const JobManager& m, JobId id, const u128& floor) {
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  while (m.status(id).scanned < floor) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "no progress";
    std::this_thread::sleep_for(1ms);
  }
}

TEST_F(ResumeTest, KilledSweepResumesToExactlyOnceCoverage) {
  const keyspace::Charset charset = keyspace::Charset::lower();
  const u128 space = keyspace::space_size(charset.size(), 1, 5);
  // Plant the very last candidate of the enumeration: the sweep must
  // cover the entire space to find it, so full, exactly-once coverage
  // is provable from the journal afterwards.
  const keyspace::KeyCodec codec(charset,
                                 keyspace::DigitOrder::kPrefixFastest);
  const u128 offset = keyspace::first_id_of_length(charset.size(), 1);
  const std::string planted = codec.decode(offset + space - u128(1));

  JobSpec spec;
  spec.name = "killme";
  spec.request.algorithm = hash::Algorithm::kMd5;
  spec.request.target_hexes = {hash::Md5::digest(planted).to_hex()};
  spec.request.charset = charset;
  spec.request.min_length = 1;
  spec.request.max_length = 5;

  // Phase 1: run with tiny quanta and destroy the manager mid-sweep.
  {
    JobServiceConfig config;
    config.workers = 2;
    config.max_quantum = u128(8192);
    config.journal_path = journal_;
    JobManager first(config);
    const JobId id = first.submit(spec);
    wait_for_coverage(first, id, u128(50000));
  }
  u128 phase1_covered(0);
  {
    const auto recovered = JobStore::load(journal_);
    ASSERT_EQ(recovered.size(), 1u);
    const auto& rec = recovered[0];
    EXPECT_FALSE(rec.final_state.has_value());
    EXPECT_TRUE(rec.found.empty());  // the key is the last candidate
    EXPECT_GT(rec.journaled, u128(0));
    EXPECT_LT(rec.journaled, space);
    // Nothing journaled twice even in the interrupted run.
    EXPECT_EQ(rec.journaled, rec.scanned.covered());
    phase1_covered = rec.scanned.covered();
  }

  // Phase 2: a fresh manager resumes only the unscanned gaps.
  {
    JobServiceConfig config;
    config.workers = 2;
    config.journal_path = journal_;
    JobManager second(config);
    ASSERT_EQ(second.resume_from(journal_), 1u);
    const JobId id = second.find_job("killme").value();
    ASSERT_TRUE(second.wait(id, 240));
    const JobSnapshot s = second.status(id);
    EXPECT_EQ(s.state, JobState::kDone);
    EXPECT_EQ(s.targets_found, 1u);
    ASSERT_EQ(s.found.size(), 1u);
    EXPECT_EQ(s.found[0].second, planted);
    // The snapshot counts the recovered coverage plus the gap work.
    EXPECT_EQ(s.scanned, space);
  }

  // The journal across both runs: the union of scanned intervals
  // covers the space exactly once.
  const auto recovered = JobStore::load(journal_);
  ASSERT_EQ(recovered.size(), 1u);
  const auto& rec = recovered[0];
  ASSERT_TRUE(rec.final_state.has_value());
  EXPECT_EQ(*rec.final_state, JobState::kDone);
  EXPECT_EQ(rec.journaled, space);            // every id journaled once...
  EXPECT_EQ(rec.scanned.covered(), space);    // ...and none of them twice
  EXPECT_TRUE(rec.scanned.covers(keyspace::Interval(u128(0), space)));
  EXPECT_GT(phase1_covered, u128(0));  // phase 1 really contributed
  ASSERT_EQ(rec.found.size(), 1u);
  EXPECT_EQ(rec.found[0].second, planted);
}

TEST_F(ResumeTest, ReplayedRecoveryIsNotRecordedTwice) {
  // A journal whose found record has no covering interval — the shape
  // a crash between the found append and the interval append leaves
  // behind. The resumed sweep rescans that region and hits the key
  // again; the replayed recovery must absorb the duplicate.
  JobSpec spec;
  spec.name = "replay";
  spec.request.algorithm = hash::Algorithm::kMd5;
  spec.request.target_hexes = {hash::Md5::digest("aa").to_hex(),
                               hash::Md5::digest("zzzy").to_hex()};
  spec.request.charset = keyspace::Charset::lower();
  spec.request.min_length = 1;
  spec.request.max_length = 4;
  {
    JobStore store(journal_);
    store.record_job(spec);
    store.record_found("replay", hash::Md5::digest("aa").to_hex(), "aa");
  }

  JobServiceConfig config;
  config.workers = 2;
  config.journal_path = journal_;
  JobManager manager(config);
  ASSERT_EQ(manager.resume_from(journal_), 1u);
  const JobId id = manager.find_job("replay").value();
  ASSERT_TRUE(manager.wait(id, 240));
  const JobSnapshot s = manager.status(id);
  EXPECT_EQ(s.state, JobState::kDone);
  EXPECT_EQ(s.targets_found, 2u);
  ASSERT_EQ(s.found.size(), 2u);
  EXPECT_EQ(s.found[0].second, "aa");  // the replay, in recovery order

  const auto recovered = JobStore::load(journal_);
  ASSERT_EQ(recovered.size(), 1u);
  // One record per digest: "aa" once (the replayed one), "zzzy" once.
  EXPECT_EQ(recovered[0].found.size(), 2u);
}

TEST_F(ResumeTest, TerminalJobsAreNotResumed) {
  JobSpec spec;
  spec.name = "finished";
  spec.request.target_hexes = {hash::Md5::digest("7").to_hex()};
  spec.request.charset = keyspace::Charset::digits();
  spec.request.min_length = 1;
  spec.request.max_length = 2;
  {
    JobStore store(journal_);
    store.record_job(spec);
    store.record_state("finished", JobState::kDone);
    spec.name = "abandoned";
    store.record_job(spec);
    store.record_state("abandoned", JobState::kCancelled);
  }
  JobServiceConfig config;
  config.workers = 1;
  JobManager manager(config);
  EXPECT_EQ(manager.resume_from(journal_), 0u);
  EXPECT_TRUE(manager.snapshot_all().empty());
}

TEST_F(ResumeTest, FullyCoveredJobCompletesWithoutDispatch) {
  // Crash after the last interval record but before the state record:
  // resume finds no gaps and finishes the job immediately.
  JobSpec spec;
  spec.name = "covered";
  spec.request.target_hexes = {hash::Md5::digest("xx-not-there").to_hex()};
  spec.request.charset = keyspace::Charset::digits();
  spec.request.min_length = 1;
  spec.request.max_length = 2;
  const u128 space = keyspace::space_size(10, 1, 2);
  {
    JobStore store(journal_);
    store.record_job(spec);
    store.record_interval("covered", keyspace::Interval(u128(0), space));
  }
  JobServiceConfig config;
  config.workers = 1;
  config.journal_path = journal_;
  JobManager manager(config);
  ASSERT_EQ(manager.resume_from(journal_), 1u);
  const JobId id = manager.find_job("covered").value();
  ASSERT_TRUE(manager.wait(id, 60));
  const JobSnapshot s = manager.status(id);
  EXPECT_EQ(s.state, JobState::kDone);
  EXPECT_EQ(s.scanned, space);
  EXPECT_EQ(s.intervals_issued, 0u);  // nothing was dispatched again
}

TEST_F(ResumeTest, ResumeIntoADifferentJournalIsSelfContained) {
  const std::string second_journal = journal_ + ".moved";
  std::filesystem::remove(second_journal);

  JobSpec spec;
  spec.name = "mover";
  spec.request.target_hexes = {hash::Md5::digest("0000").to_hex()};
  spec.request.charset = keyspace::Charset::lower();
  spec.request.min_length = 1;
  // A 1..5 space (12.3M ids): phase 1 cannot race through the whole
  // sweep before the coverage poll kills it, so the job is reliably
  // non-terminal when phase 2 resumes it.
  spec.request.max_length = 5;
  const u128 space = keyspace::space_size(26, 1, 5);
  {
    JobServiceConfig config;
    config.workers = 2;
    config.max_quantum = u128(8192);
    config.journal_path = journal_;
    JobManager first(config);
    const JobId id = first.submit(spec);
    wait_for_coverage(first, id, u128(20000));
  }
  {
    JobServiceConfig config;
    config.workers = 2;
    config.journal_path = second_journal;
    JobManager second(config);
    ASSERT_EQ(second.resume_from(journal_), 1u);
    ASSERT_TRUE(second.wait(second.find_job("mover").value(), 240));
  }
  // The new journal alone reconstructs the whole job: spec, the
  // re-recorded phase-1 coverage, and the phase-2 records.
  const auto recovered = JobStore::load(second_journal);
  ASSERT_EQ(recovered.size(), 1u);
  EXPECT_EQ(recovered[0].spec.name, "mover");
  EXPECT_EQ(recovered[0].journaled, space);
  EXPECT_EQ(recovered[0].scanned.covered(), space);
  ASSERT_TRUE(recovered[0].final_state.has_value());
  EXPECT_EQ(*recovered[0].final_state, JobState::kDone);
  std::filesystem::remove(second_journal);
}

TEST_F(ResumeTest, CorruptedMiddleRecordQuarantinesAndResumesToCompletion) {
  // The ISSUE-9 acceptance shape: damage one interval record in the
  // middle of an unfinished run's journal, then prove resume quarantines
  // it (with position info), re-dispatches the lost interval, and
  // still runs the job to full exactly-once coverage.
  const keyspace::Charset charset = keyspace::Charset::lower();
  const u128 space = keyspace::space_size(charset.size(), 1, 4);
  const keyspace::KeyCodec codec(charset,
                                 keyspace::DigitOrder::kPrefixFastest);
  const u128 offset = keyspace::first_id_of_length(charset.size(), 1);
  const std::string planted = codec.decode(offset + space - u128(1));

  JobSpec spec;
  spec.name = "bitrot";
  spec.request.algorithm = hash::Algorithm::kMd5;
  spec.request.target_hexes = {hash::Md5::digest(planted).to_hex()};
  spec.request.charset = charset;
  spec.request.min_length = 1;
  spec.request.max_length = 4;

  {
    // Phase 1 journals five intervals through the lease API of a
    // manager with no local threads, so the journal ends at the same
    // point whatever the kernel's speed: local threads can finish a
    // 26^4 job between two polls of wait_for_coverage.
    JobServiceConfig config;
    config.local_scan = false;
    config.journal_path = journal_;
    JobManager first(config);
    first.submit(spec);
    const core::MultiSweeper sweeper(spec.request);
    for (int i = 0; i < 5; ++i) {
      const auto grant = first.lease("phase1#1", u128(4096), 1e9);
      ASSERT_TRUE(grant.has_value());
      std::vector<core::SweepHit> hits;
      const u128 tested = sweeper.scan(grant->interval, hits);
      ASSERT_EQ(tested, grant->interval.size());
      ASSERT_TRUE(hits.empty());  // the key is the last candidate
      ASSERT_TRUE(first.retire_lease(grant->lease_id, tested));
    }
  }

  // Corrupt an interval record in the middle of the file by flipping
  // bytes inside its payload (the CRC now disagrees).
  std::vector<std::string> lines;
  {
    std::ifstream in(journal_);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 3u);
  std::size_t victim = 0;
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    if (lines[i].find("\"type\":\"interval\"") != std::string::npos) {
      victim = i;
      break;
    }
  }
  ASSERT_GT(victim, 0u);
  lines[victim].replace(lines[victim].find("interval"), 8, "intervnl");
  {
    std::ofstream out(journal_, std::ios::trunc);
    for (const std::string& line : lines) out << line << '\n';
  }

  // Resume: the damaged record is skipped and reported, its interval
  // counts as unscanned and re-dispatches, and the sweep completes.
  JobServiceConfig config;
  config.workers = 2;
  config.journal_path = journal_;
  JobManager second(config);
  JobStore::LoadReport report;
  ASSERT_EQ(second.resume_from(journal_, &report), 1u);
  EXPECT_EQ(report.quarantined, 1u);
  ASSERT_EQ(report.notes.size(), 1u);
  EXPECT_NE(report.notes[0].find(journal_ + ":" + std::to_string(victim + 1)),
            std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(journal_ + ".quarantine"));

  const JobId id = second.find_job("bitrot").value();
  ASSERT_TRUE(second.wait(id, 240));
  const JobSnapshot s = second.status(id);
  EXPECT_EQ(s.state, JobState::kDone);
  EXPECT_EQ(s.targets_found, 1u);
  ASSERT_EQ(s.found.size(), 1u);
  EXPECT_EQ(s.found[0].second, planted);
  EXPECT_EQ(s.scanned, space);  // the quarantined interval was rescanned
}

TEST_F(ResumeTest, LiveNameCollisionIsRejected) {
  JobSpec spec;
  spec.name = "clash";
  spec.request.target_hexes = {hash::Md5::digest("0000").to_hex()};
  spec.request.charset = keyspace::Charset::lower();
  spec.request.min_length = 1;
  spec.request.max_length = 6;
  {
    JobStore store(journal_);
    store.record_job(spec);
  }
  JobServiceConfig config;
  config.workers = 1;
  JobManager manager(config);
  const JobId live = manager.submit(spec);
  EXPECT_THROW(manager.resume_from(journal_), InvalidArgument);
  manager.cancel(live);
  ASSERT_TRUE(manager.wait(live, 60));
}

}  // namespace
}  // namespace gks::service
