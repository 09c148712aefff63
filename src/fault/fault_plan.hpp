// Fault-injection plans: the perturbation layer of the runtime.
//
// A FaultPlan is a declarative, seeded description of everything that can go
// wrong during one run: transient task failures (retried against a fixed
// budget), stragglers (duration multipliers), and fail-stop worker losses at
// configured virtual times. The FaultInjector derives every decision
// deterministically from (seed, task, attempt), so a run with the same plan
// and the same engine seed reproduces bit-for-bit — fault experiments stay
// as replayable as fault-free ones.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "runtime/task_graph.hpp"

namespace mp {

/// Transient (retryable) execution failure of matching tasks. The failure
/// surfaces at the end of the attempt: the time is spent, the result is
/// discarded, and the task goes back to the scheduler.
struct TransientFaultSpec {
  /// Codelet to match; an invalid id matches every codelet.
  CodeletId codelet;
  /// Per-attempt failure probability in [0, 1].
  double probability = 0.0;
};

/// Straggler injection: a matching attempt runs `multiplier` times longer
/// than its nominal duration (runtime noise beyond the engine's gaussian).
struct StragglerSpec {
  /// Codelet to match; an invalid id matches every codelet.
  CodeletId codelet;
  /// Per-attempt trigger probability in [0, 1].
  double probability = 0.0;
  /// Duration multiplier applied when triggered (> 1 slows the task down;
  /// < 1 speeds it up in the simulator and is only counted by the executor).
  double multiplier = 4.0;
};

/// Fail-stop loss of one worker at a configured time. The worker never comes
/// back; in-flight work is drained back into the scheduler and, when the
/// last worker of a memory node dies, the node's data is evacuated.
struct WorkerLossSpec {
  WorkerId worker;
  double time = 0.0;
};

/// The complete perturbation description for one run.
struct FaultPlan {
  /// Seed of the fault decision streams (independent of the engine seed).
  std::uint64_t seed = 0xFA11;
  /// Retries granted to a task after its first failed attempt; a task whose
  /// failures exceed the budget is abandoned (with its descendants).
  std::size_t retry_budget = 3;
  std::vector<TransientFaultSpec> transient;
  std::vector<StragglerSpec> stragglers;
  std::vector<WorkerLossSpec> worker_losses;

  [[nodiscard]] bool empty() const {
    return transient.empty() && stragglers.empty() && worker_losses.empty();
  }
};

/// Deterministic per-(task, attempt) fault decisions derived from a plan.
/// Stateless after construction: every query recomputes its decision from
/// the seed, so call order cannot perturb outcomes.
class FaultInjector {
 public:
  FaultInjector(FaultPlan plan, const TaskGraph& graph);

  /// Should attempt number `attempt` (0-based) of `t` fail transiently?
  [[nodiscard]] bool fail_attempt(TaskId t, std::size_t attempt) const;

  /// Duration multiplier for the attempt (1.0 when no straggler triggers).
  [[nodiscard]] double duration_multiplier(TaskId t, std::size_t attempt) const;

 private:
  /// First spec matching the codelet of `t` wins (wildcards come last only
  /// if the user lists them last — document order matters).
  [[nodiscard]] const TransientFaultSpec* transient_for(TaskId t) const;
  [[nodiscard]] const StragglerSpec* straggler_for(TaskId t) const;

  FaultPlan plan_;
  const TaskGraph* graph_;
};

/// Aggregate fault counters, embedded into SimResult / ExecResult.
struct FaultStats {
  std::size_t failures_injected = 0;   ///< transient failures that fired
  std::size_t retries = 0;             ///< re-pushes (transient + loss drain)
  std::size_t stragglers_injected = 0; ///< attempts with a multiplier other than 1
  std::size_t tasks_abandoned = 0;     ///< never executed (budget/orphaned + descendants)
  std::size_t workers_lost = 0;        ///< fail-stop losses that fired
  /// True when the run lost capacity or tasks (worker loss or abandonment);
  /// transient failures that were successfully retried do not degrade a run.
  bool degraded = false;
};

}  // namespace mp
