// ThreadExecutor: runs a task graph for real, with one OS thread per
// platform worker and real kernel implementations (cpu_fn / gpu_fn).
//
// This is the functional counterpart of the simulator: the same Scheduler
// implementations plug in unchanged (a mutex-free one behind a
// SerializedScheduler), data handles carry real buffers, and the numerical
// results can be validated. Workers tagged GPU
// execute gpu_fn when provided, else fall back to cpu_fn — functional
// emulation of the device (timing heterogeneity is the simulator's job).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/task_lifecycle.hpp"
#include "runtime/memory_manager.hpp"
#include "runtime/perf_model.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/trace.hpp"

namespace mp {

struct ExecConfig {
  /// Fault-injection plan. Transient failures and stragglers match the
  /// simulator's semantics (decided per (task, attempt) from the plan seed);
  /// WorkerLossSpec times are wall-clock seconds since run start, and a loss
  /// takes effect between tasks — a kernel already running is never torn
  /// down mid-flight. A kernel that throws is converted into a transient
  /// failure and retried against the same budget, plan or no plan.
  FaultPlan fault;
  /// Decision-event sink shared with the scheduler (wall-clock timestamps).
  /// The executor adds REPUSH / WORKER_LOST / fault events and, when the
  /// observer exposes a MetricsRegistry, an "exec.pop_latency_s" histogram
  /// and an "exec.stall_timeouts" counter.
  /// Null disables all recording. Not owned; must be thread-safe (the
  /// provided observers are).
  SchedObserver* observer = nullptr;
  /// Upper bound (seconds) on how long an idle worker stays parked before
  /// re-checking for work — the anti-hang bound that keeps a buggy policy
  /// from wedging the process (the worker retries and the post-run checks
  /// flag lost tasks). Tests shrink it so fault suites finish fast.
  double stall_timeout = 2.0;
};

struct ExecResult {
  double wall_seconds = 0.0;
  std::size_t tasks_executed = 0;
  /// Parks that lasted at least ExecConfig::stall_timeout: workers rescued
  /// by the timeout instead of a wakeup. 0 in a healthy fault-free run;
  /// also counted in the observer's "exec.stall_timeouts" counter.
  std::size_t stall_timeouts = 0;
  /// Fault outcome (failures_injected also counts kernels that threw).
  FaultStats fault;
};

class ThreadExecutor {
 public:
  /// The perf database provides δ priors for the (initially uncalibrated)
  /// history model; measured wall times refine it as the run progresses.
  ThreadExecutor(const TaskGraph& graph, const Platform& platform,
                 const PerfDatabase& perf);

  /// Executes the whole DAG with real kernels. Every codelet reachable on a
  /// CPU worker must have cpu_fn; GPU-only codelets must have gpu_fn or
  /// cpu_fn. Aborts if a popped task has no runnable implementation.
  ExecResult run(const ExecSchedulerFactory& make_scheduler, ExecConfig config = {});

  /// The last run's trace: one segment per executed task, timed by the clock
  /// readings taken around its kernel (inside its Commute locks, before any
  /// straggler sleep), in wall seconds since run start. A segment's
  /// fetch_start equals its exec_start and its data_stall is 0: real data
  /// placement is logical only.
  [[nodiscard]] const Trace& trace() const;
  /// The last run's pop-time δ(t, executed arch) per task, read only when an
  /// observer was attached (all 0 otherwise, so the model audit is empty).
  [[nodiscard]] std::span<const double> predicted_durations() const;

 private:
  const TaskGraph& graph_;
  const Platform& platform_;
  const PerfDatabase& perf_;
  /// The last run's lifecycle. Its context points into run()'s frame, so
  /// after run() returns only its record (trace, predictions) is read.
  std::unique_ptr<TaskLifecycle> lifecycle_;
};

}  // namespace mp
