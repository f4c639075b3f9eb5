#pragma once

#include <memory>
#include <vector>

#include "dispatch/balancer.h"
#include "dispatch/protocol.h"
#include "dispatch/report.h"
#include "dispatch/search.h"
#include "dispatch/tuner.h"
#include "simnet/network.h"

namespace gks::dispatch {

/// Knobs of the dispatch pattern.
struct AgentConfig {
  TuneConfig tune;

  /// A dispatch round hands each member `rounds_multiplier` × its
  /// balanced quota N_j, amortizing the scatter/gather overhead
  /// (Section III: "N_node could be arbitrarily increased to minimize
  /// the overhead caused by the dispatch and merge steps").
  double rounds_multiplier = 8.0;

  /// Floor on each member's round chunk expressed as seconds of work
  /// at its tuned throughput. Balanced quotas guarantee the target
  /// efficiency *inside* a device, but per-round fixed costs (links,
  /// host scheduling) still need deep rounds to amortize; assigning
  /// whole seconds of work per round keeps them negligible.
  double round_virtual_target_s = 30.0;

  /// A child that has not answered within `child_timeout_factor` times
  /// the expected round duration is declared dead; its interval is
  /// requeued and quotas are recomputed over the survivors (the
  /// paper's minimum fault-tolerance model).
  double child_timeout_factor = 6.0;

  /// Floor on the timeout in *real* seconds, protecting fault
  /// detection from host scheduling jitter when virtual time is
  /// heavily compressed. It is applied as min_timeout_real_s / scale
  /// virtual seconds, which an event-driven clock keeps exactly (no
  /// jitter to absorb there, but the same simulated behaviour).
  double min_timeout_real_s = 0.25;

  /// A serving node that has been idle (no parent traffic) this many
  /// *real* seconds concludes its dispatcher died and unwinds,
  /// stopping its own subtree. This is the practical edge of the
  /// paper's caveat that "the inactivity of a dispatching node would
  /// block the contribution of all the nodes in the dispatching sub
  /// tree" — the orphans cannot contribute, but they must not hang.
  /// Measured on the clock like min_timeout_real_s.
  double orphan_timeout_real_s = 10.0;

  /// Stop dispatching new work once a solution is known.
  bool stop_on_first_find = true;

  /// Section III speaks of nodes becoming *temporarily* inactive: when
  /// enabled, the dispatcher re-probes dead children every
  /// `reprobe_every_rounds` rounds with a fresh TuneRequest and
  /// restores any that answer, recomputing quotas over the grown
  /// membership (the dynamic-network extension of the pattern).
  bool allow_rejoin = true;
  unsigned reprobe_every_rounds = 4;
};

/// The role every node of the cluster runs — worker, dispatcher, or
/// both at once (the paper's node A holds a GPU *and* dispatches to B
/// and C). An agent owns zero or more local devices and dispatches to
/// zero or more children over the network; a subtree aggregates into
/// a single capability toward the next level up (Section III).
class NodeAgent {
 public:
  NodeAgent(simnet::Network& net, simnet::NodeId self,
            std::vector<std::unique_ptr<IntervalSearcher>> devices,
            AgentConfig config = {});

  /// Thread body for non-root nodes: serves TuneRequest/WorkAssign
  /// from the parent until StopSearch arrives (which is forwarded to
  /// the children before returning).
  void serve();

  /// Root-only: runs the complete search over `space`, using
  /// `tune_scratch` for the tuning pass, and reports the Table IX
  /// metrics. Sends StopSearch down the tree before returning.
  SearchReport run_root(const keyspace::Interval& space,
                        const keyspace::Interval& tune_scratch);

  simnet::NodeId id() const { return self_; }

 private:
  struct Member {
    // Exactly one of device / child is set.
    IntervalSearcher* device = nullptr;
    std::optional<simnet::NodeId> child;
    Capability capability;
    std::string name;
    bool alive = true;
    u128 tested{0};
    double busy_virtual_s = 0;
  };

  /// Runs the tuning step over local devices and children; fills
  /// members_ and returns the aggregated subtree capability.
  Capability tune_all(const keyspace::Interval& scratch);

  /// Dispatch loop over one interval; stops early on a find when
  /// configured. `stopped` is set if a StopSearch arrived mid-work.
  WorkResult process_interval(const keyspace::Interval& interval,
                              std::uint64_t base_round, bool& stopped);

  void forward_stop();

  std::vector<std::size_t> alive_members() const;

  simnet::Network& net_;
  simnet::NodeId self_;
  std::vector<std::unique_ptr<IntervalSearcher>> devices_;
  AgentConfig config_;
  std::vector<Member> members_;
  keyspace::Interval tune_scratch_;  ///< reused by rejoin re-probes
  std::uint64_t rounds_run_ = 0;
  unsigned failures_detected_ = 0;
  CostLedger ledger_;
};

}  // namespace gks::dispatch
