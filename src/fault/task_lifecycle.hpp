// TaskLifecycle: the engine-neutral half of running a task — everything the
// simulator and the threaded executor must decide the same way once an
// attempt has been popped.
//
// It owns the per-task state, the failed-attempt index the fault plan is
// queried with, the retry-budget verdict, the abandon cascade over the
// descendant closure, every FaultStats counter, the engine-side REPUSH /
// WORKER_LOST / FAULT_FAILURE / FAULT_STRAGGLER / TASK_ABANDONED events
// (stamped with the task's attempt index) and the run's record — the Trace
// and the pop-time prediction of every executed task. It checks each run
// invariant at the transition that can break it. The engines keep what is
// theirs: the clock, data placement and the policy calls.
//
// Not thread-safe. The threaded executor calls the mutating members under its
// engine lock; the attempt verdicts (attempt_fails / attempt_multiplier) are
// stateless and settled() is a relaxed atomic, so those may be read without it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault_plan.hpp"
#include "obs/events.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/trace.hpp"
#include "verify/sync.hpp"

namespace mp {

class TaskLifecycle {
 public:
  /// `ctx` supplies the graph, platform, clock and observer; the plan's loss
  /// specs must name workers of `ctx.platform`. A default plan injects
  /// nothing but still sets the retry budget (the executor retries kernels
  /// that throw against it).
  TaskLifecycle(const SchedContext& ctx, const FaultPlan& plan);

  // --- stateless verdicts (no lock needed) ----------------------------------
  /// Does attempt `attempt` of `t` fail transiently under the plan?
  [[nodiscard]] bool attempt_fails(TaskId t, std::size_t attempt) const;
  /// Duration multiplier of attempt `attempt` of `t` (1 when none fires).
  [[nodiscard]] double attempt_multiplier(TaskId t, std::size_t attempt) const;

  // --- per-task state --------------------------------------------------------
  /// Failed attempts of `t` so far: the index of its next attempt.
  [[nodiscard]] std::size_t attempt(TaskId t) const { return attempts_[t.index()]; }
  /// Has `t` executed or been abandoned?
  [[nodiscard]] bool settled(TaskId t) const {
    return trace_.executed(t) || state_[t.index()] == State::Abandoned;
  }
  /// Executed + abandoned tasks; safe to read without the engine lock.
  [[nodiscard]] std::size_t settled() const { return settled_.load(); }
  [[nodiscard]] const FaultStats& stats() const { return stats_; }

  // --- the run's record ------------------------------------------------------
  /// One segment per executed task, in completion order.
  [[nodiscard]] const Trace& trace() const { return trace_; }
  /// Pop-time δ(t, executed arch) per task, as the engine passed it to
  /// completed() (0 for tasks that never completed).
  [[nodiscard]] std::span<const double> predicted_durations() const { return predicted_; }

  // --- transitions -----------------------------------------------------------
  /// The policy handed `t` to `w`; returns the attempt index. Aborts if `t`
  /// is out already (popped, or abandoned) or `w`'s arch cannot run it.
  [[nodiscard]] std::size_t popped(TaskId t, WorkerId w);
  /// An attempt of `t` on `w` ran `multiplier` times its nominal duration.
  /// Every multiplier other than 1 counts as a straggler (a speed-up too).
  void straggled(TaskId t, WorkerId w, double multiplier);
  /// An attempt of `t` on `w` failed (injected, or a kernel that threw).
  /// Returns true when the budget grants a retry — `t` is handed back and the
  /// caller re-pushes it — and false when `t` and its descendants were
  /// abandoned.
  [[nodiscard]] bool failed(TaskId t, WorkerId w);
  /// An attempt drained off the lost worker `w` is handed back (the caller
  /// re-pushes `t`); the attempt index does not move.
  void requeued(TaskId t, WorkerId w);
  /// `w` was lost (fail-stop); it may complete nothing after this.
  void worker_lost(WorkerId w);
  /// Abandons `t` and its whole descendant closure (none of them can ever
  /// have its dependencies satisfied); already-abandoned tasks are skipped.
  void abandon(TaskId t);
  /// `seg.task` completed: records its segment and the pop-time prediction
  /// `predicted` of its duration. Aborts if `seg.worker` was lost; the trace
  /// rejects a second execution and a dependency out of order.
  void completed(const TraceSegment& seg, double predicted);
  /// End of run: checks that every task executed or was abandoned, sets
  /// `degraded`, and returns the fault outcome.
  [[nodiscard]] FaultStats finish();

 private:
  /// Popped stays set once the task executed.
  enum class State : std::uint8_t { Idle, Popped, Abandoned };

  void emit(SchedEventKind kind, TaskId t, WorkerId w) const;

  SchedContext ctx_;
  std::size_t retry_budget_;
  std::unique_ptr<FaultInjector> injector_;  // null when the plan is empty
  std::vector<std::size_t> attempts_;        // failed attempts, per task
  std::vector<State> state_;                 // per task
  std::vector<std::uint8_t> lost_;           // per worker
  /// Executed + abandoned; written only by the (serialized) transitions.
  RelaxedAtomic<std::size_t> settled_{0};
  FaultStats stats_;
  Trace trace_;
  std::vector<double> predicted_;  // per task
};

}  // namespace mp
