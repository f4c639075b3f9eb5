#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/multi_sweep.h"
#include "keyspace/interval.h"
#include "service/interval_set.h"
#include "service/job.h"
#include "service/journal.h"
#include "service/scheduler.h"
#include "support/uint128.h"

namespace gks::service {

struct JobServiceConfig {
  /// Worker threads; 0 uses the hardware concurrency.
  std::size_t workers = 0;
  /// Ceiling on a local thread's grant, in candidates: bounds
  /// preemption latency even on very fast scans. Grants are sized from
  /// the job's measured scan rate (see JobManager's execution model).
  u128 max_quantum{u128(1) << 22};
  /// Checkpoint journal path; empty runs the service in-memory only.
  std::string journal_path;
  /// Journal flush policy (see JobStore::FlushPolicy): the default
  /// flushes every record; coordinators serving many remote workers
  /// batch (group-commit) so interval retirement doesn't serialize on
  /// per-line flushes.
  JobStore::FlushPolicy journal_flush;
  /// Rotate the journal into `<path>.000N` segments once the active
  /// file exceeds this many bytes; 0 keeps a single file (the
  /// default). Replay reads all segments (see JobStore).
  std::size_t journal_rotate_bytes = 0;
  /// When false, no local scan threads are spawned: the manager is a
  /// pure coordinator whose keyspace is consumed exclusively through
  /// the lease API. `workers` is then ignored.
  bool local_scan = true;
};

/// One granted lease: a bounded interval of a job's keyspace checked
/// out to a holder until a deadline. Remote holders are preempted by
/// deadline because they may simply vanish; the manager's own scan
/// threads hold leases that never expire and are preempted by the
/// job's interrupt flag instead. Either way retired coverage is
/// journaled and unretired remainders re-dispatch.
struct LeaseGrant {
  std::uint64_t lease_id = 0;
  JobId job = 0;
  std::string job_name;
  keyspace::Interval interval;
  /// The job's target-set generation at grant time (bumped by every
  /// effective add_targets / remove_targets). A coordinator re-sends
  /// the job spec to any session whose last-sent generation differs,
  /// so workers with a cached sweeper rebuild it before scanning.
  std::uint64_t target_gen = 0;
};

/// How the manager judged one reported recovery. Remote workers are
/// untrusted: the manager recomputes the digest of every claimed
/// preimage before journaling it, so a buggy or malicious worker's
/// fabrication (`kForged`) is distinguishable from the benign race of
/// two holders finding the same key (`kDuplicate`) — the coordinator
/// strikes the former and ignores the latter.
enum class FoundOutcome {
  kApplied,    ///< verified, journaled, counted — a new recovery
  kDuplicate,  ///< verified but already recovered (or not a target)
  kForged,     ///< H(key) != digest: fabricated or corrupt report
  kNoLease,    ///< the lease is no longer live
};

/// The multi-tenant job service: owns the local scan threads, the
/// fair-share scheduler and the checkpoint journal. Tenants submit
/// JobSpecs and get JobIds; every job — single digest or whole
/// credential store — runs through the same core::MultiSweeper batch
/// path.
///
/// Execution model: there is one dispatch path, the lease. A local
/// scan thread is an in-process lease holder: it takes a grant through
/// the same code as lease() (sized from the job's measured rate, since
/// it has no rate of its own to ask with), scans it with the job's
/// interrupt flag as the cooperative preemption hook, reports each hit
/// through the digest-verified report_found(), and hands the tested
/// prefix back through retire_lease(). Remote workers (src/dist/) do
/// the same over the wire. Recoveries are journaled before the
/// interval that contains them, and retired intervals before they are
/// merged into the job's coverage, so a killed process never loses
/// acknowledged work and resume_from() re-dispatches only the
/// unscanned gaps.
///
/// All public methods are thread-safe. Destroying the manager stops
/// the scan threads (interrupting in-flight scans at the next chunk
/// boundary); non-terminal jobs keep their journaled coverage and can
/// be resumed by a later manager.
class JobManager {
 public:
  explicit JobManager(JobServiceConfig config = {});
  ~JobManager();

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  /// Validates and enqueues a job. The spec's name must be unique
  /// among live (non-terminal) jobs; throws InvalidArgument otherwise.
  JobId submit(JobSpec spec);

  /// Idempotent-by-name submit: returns the id of the existing job
  /// with this name (live or finished — latest submission wins) or
  /// submits `spec` as a new job. Lookup and insert share one critical
  /// section, so concurrent calls for the same name all resolve to a
  /// single job instead of the losers hitting the duplicate-name
  /// error. This is what the coordinator's remote `submit` verb uses.
  JobId find_or_submit(JobSpec spec);

  /// Reloads a journal written by an earlier run and re-submits every
  /// job without a terminal state record, seeded with its journaled
  /// coverage and recoveries — only the unscanned gaps are dispatched
  /// again. Jobs whose gaps turn out empty complete immediately.
  /// Returns the number of jobs brought back. Corrupt records are
  /// quarantined rather than fatal (see JobStore::load); pass `report`
  /// to learn what was skipped.
  std::size_t resume_from(const std::string& journal_path,
                          JobStore::LoadReport* report = nullptr);

  /// Requests cancellation: the interrupt flag preempts in-flight
  /// quanta at their next chunk boundary and the job goes terminal
  /// (kCancelled) once they retire. No-op on terminal jobs.
  void cancel(JobId id);

  /// Pauses / resumes a job. Pausing preempts in-flight quanta; their
  /// untested remainders return to the pending queue, so a paused job
  /// loses no work. Resuming re-enters the scheduler at the current
  /// fair-share virtual time (no catch-up burst).
  void pause(JobId id);
  void resume(JobId id);

  /// Attaches more target hashes to a live job without restarting its
  /// sweep. The mutation is journaled before it is applied (after
  /// validation, so the journal never holds a doomed record); the
  /// sweeper's generation handoff guarantees a target added before its
  /// covering interval is scanned will be found. Digests already
  /// recovered resolve instantly (`already_found`); a job whose
  /// targets were all recovered goes back to runnable when the add
  /// attaches new outstanding work. An add that attaches outstanding
  /// digests also bumps the job's target generation and reclaims its
  /// live leases: their holders are scanning with the old target set,
  /// and retiring such an interval as covered would silently skip the
  /// new digest forever — reclaimed intervals re-dispatch under the
  /// new generation instead (the coverage ledger absorbs any overlap
  /// with a late retire). Throws InvalidArgument on
  /// malformed hexes, unknown ids, or terminal jobs.
  core::TargetAddOutcome add_targets(JobId id,
                                     const std::vector<std::string>& hexes);

  /// Detaches target hashes from a live job: their digests stop being
  /// scanned for and no longer hold the job open. Removing the last
  /// outstanding target completes the job once in-flight quanta
  /// retire. Returns the number of unique digests detached. Journaled
  /// before applying, like add_targets.
  std::size_t remove_targets(JobId id, const std::vector<std::string>& hexes);

  /// ---- Remote lease API (the distributed tier, src/dist/) --------
  ///
  /// All deadlines and `now` values are caller-supplied monotonic
  /// seconds (the coordinator's Transport::now_s() timebase); the
  /// manager only ever compares them, so real TCP clocks and virtual
  /// simnet clocks both work unchanged.

  /// Checks out up to `max_ids` of the most underserved runnable job's
  /// pending keyspace to `holder`, valid until `deadline`. The job's
  /// fair share is charged at grant time, so concurrent holders don't
  /// pile onto the same underserved job. nullopt when nothing is
  /// runnable.
  std::optional<LeaseGrant> lease(const std::string& holder,
                                  const u128& max_ids, double deadline);

  /// Retires a lease: journals the covered prefix [begin, begin+tested)
  /// and returns the untested remainder to the pending queue; `busy_s`
  /// is the holder's scan time, which feeds the job's rate estimate.
  /// Recoveries arrive separately, through report_found(), before the
  /// retire. Returns false for unknown or already-reclaimed lease ids —
  /// the interval was re-dispatched, and the coverage ledger plus
  /// found dedup make the late holder's overlap harmless.
  bool retire_lease(std::uint64_t lease_id, const u128& tested,
                    double busy_s = 0);

  /// Records a recovery against a live lease without retiring it (a
  /// worker reports FOUND the moment it hits, so a later crash cannot
  /// lose the key). The claimed preimage is verified — its digest
  /// recomputed under the job's salt scheme — before anything is
  /// journaled or counted; kForged reports leave no trace in the
  /// journal. Duplicates of an already-recovered digest are absorbed
  /// exactly-once (kDuplicate).
  FoundOutcome report_found(std::uint64_t lease_id,
                            const std::string& digest_hex,
                            const std::string& key);

  /// Pushes every live lease of `holder` out to `deadline` (heartbeat
  /// renewal; deadlines never move backwards). Returns the number of
  /// leases renewed.
  std::size_t renew_leases(const std::string& holder, double deadline);

  /// Returns expired leases' intervals to their jobs' pending queues.
  /// The coordinator calls this periodically with its current time;
  /// the count is the number of leases reclaimed. `expired_holders`
  /// (when given) receives the holder of each reclaimed lease — the
  /// coordinator's health scoring strikes them.
  std::size_t expire_leases(double now,
                            std::vector<std::string>* expired_holders =
                                nullptr);

  /// Immediately reclaims every lease of `holder` (connection closed
  /// or BYE — no reason to wait for the deadline).
  std::size_t revoke_leases(const std::string& holder);

  /// Whether a lease is still live (granted, not retired/expired/
  /// revoked). Heartbeat replies use this to tell workers about
  /// leases cancelled under them.
  bool lease_live(std::uint64_t lease_id) const;

  /// Live lease count across all jobs, local scan threads' included.
  std::size_t lease_count() const;

  /// The job's spec with the *current* target set (add_targets extends
  /// the original request), plus optionally the recoveries so far —
  /// what a coordinator sends a worker that has never seen the job.
  JobSpec wire_spec(JobId id,
                    std::vector<std::pair<std::string, std::string>>*
                        found_so_far = nullptr) const;

  /// ----------------------------------------------------------------

  /// Point-in-time snapshot; throws InvalidArgument for unknown ids.
  JobSnapshot status(JobId id) const;

  /// Snapshots of every job, in submission order.
  std::vector<JobSnapshot> snapshot_all() const;

  /// The id of the live or finished job with this name, if any.
  std::optional<JobId> find_job(std::string_view name) const;

  /// Blocks until the job is terminal. timeout_s < 0 waits forever.
  /// Returns true when the job is terminal on return.
  bool wait(JobId id, double timeout_s = -1) const;

  /// Blocks until every submitted job is terminal.
  void wait_all() const;

  std::size_t worker_count() const { return workers_.size(); }

 private:
  /// Everything the manager knows about one job. Guarded by mu_ except
  /// `interrupt`, which scans read lock-free, and `spec` and the
  /// `sweeper` pointer, which never change after submit.
  struct JobImpl {
    JobId id = 0;
    JobSpec spec;
    JobState state = JobState::kQueued;
    std::unique_ptr<core::MultiSweeper> sweeper;

    /// Unscanned sub-intervals, ascending; grants are sliced off the
    /// front.
    std::deque<keyspace::Interval> pending;
    IntervalSet coverage;

    std::atomic<bool> interrupt{false};
    bool cancel_requested = false;
    std::size_t in_flight = 0;  ///< live leases on this job

    std::uint64_t intervals_issued = 0;
    std::uint64_t intervals_retired = 0;
    std::uint64_t leases_expired = 0;
    /// Bumped by every effective target mutation; lease grants carry
    /// it so the distributed tier can invalidate cached specs.
    std::uint64_t target_gen = 0;
    u128 scanned{0};
    /// Request slots resolved — by scan hits, journal replay, or adds
    /// duplicating an already-recovered digest. Exactly-once: every
    /// slot is counted through sweeper accounting that deduplicates.
    std::size_t targets_found = 0;
    double busy_s = 0;  ///< summed holder scan time, from retires

    bool dispatched_once = false;
    std::chrono::steady_clock::time_point first_dispatch;
    std::chrono::steady_clock::time_point finished;
    std::string error;
  };

  /// A granted, not-yet-retired lease (mu_ held).
  struct LeaseState {
    JobId job = 0;
    keyspace::Interval interval;
    std::string holder;
    double deadline = 0;
  };

  /// A local scan thread: an in-process lease holder named `holder`.
  void worker_loop(const std::string& holder);
  /// lease() under mu_. `max_ids` of zero sizes the grant from the
  /// picked job's measured rate (quantum_for) — the local threads' ask.
  std::optional<LeaseGrant> lease_locked(const std::string& holder,
                                         const u128& max_ids,
                                         double deadline);
  /// retire_lease(); a non-empty `error` (a scan that threw) fails the
  /// job and returns the whole interval untested.
  bool retire(std::uint64_t lease_id, const u128& tested, double busy_s,
              const std::string& error);
  /// Returns a lease's interval to its job's pending queue and drops
  /// the lease (mu_ held). Shared by expiry, revocation and reclaim.
  void reclaim_lease_locked(std::uint64_t lease_id, bool count_expired);
  /// Reclaims every live lease of the job, local or remote (mu_ held):
  /// cancel() and effective add_targets().
  void reclaim_job_leases_locked(JobId id);
  /// Verifies then applies one recovery to a job: recompute the
  /// digest, mark, count, journal (mu_ held). Forged reports touch
  /// nothing.
  FoundOutcome apply_found_locked(JobImpl& job,
                                  const std::string& digest_hex,
                                  const std::string& key);
  /// True when some runnable job has pending work (mu_ held).
  bool work_available() const;
  /// Grant size for a local thread on the job (mu_ held).
  u128 quantum_for(const JobImpl& job) const;
  /// Whether the scheduler should consider the job runnable (mu_ held).
  bool runnable(const JobImpl& job) const;
  /// Moves the job to a terminal state if nothing keeps it alive
  /// (mu_ held). Records state, drops it from the scheduler, notifies
  /// waiters.
  void maybe_complete(JobImpl& job);
  void finish(JobImpl& job, JobState terminal);
  JobSnapshot snapshot_locked(const JobImpl& job) const;
  JobImpl& job_ref(JobId id);
  const JobImpl& job_ref(JobId id) const;
  /// Assigns an id, journals the spec and enters the scheduler; shared
  /// tail of submit() and find_or_submit(). Unlocks `lock` to notify.
  JobId insert_job_locked(std::unique_ptr<JobImpl> job,
                          std::unique_lock<std::mutex>& lock);

  JobServiceConfig config_;
  JobStore store_;

  mutable std::mutex mu_;
  mutable std::condition_variable work_cv_;  ///< scan threads: work or stop
  mutable std::condition_variable done_cv_;  ///< waiters: job went terminal
  bool stopping_ = false;
  JobId next_id_ = 1;
  std::map<JobId, std::unique_ptr<JobImpl>> jobs_;  ///< submission order
  FairShareScheduler scheduler_;
  std::uint64_t next_lease_id_ = 1;
  std::map<std::uint64_t, LeaseState> leases_;

  std::vector<std::thread> workers_;
};

}  // namespace gks::service
