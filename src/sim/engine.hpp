// Discrete-event simulator of a heterogeneous node running a task DAG under
// a pluggable scheduling policy — the role StarPU-over-SimGrid plays in the
// paper's Fig. 4 and, here, the substrate for every figure's experiments.
//
// Model:
//  * virtual clock; events are worker pop attempts and task completions;
//  * each GPU memory node has a PCIe-like link; transfers serialize on the
//    links they cross (latency + bytes/bandwidth), including prefetches;
//  * task duration = ground-truth analytic time × (1 + σ·noise), noise
//    drawn per task from a seeded generator;
//  * the scheduler sees δ(t,a) through the history model (pre-seeded
//    "calibrated" by default, like the paper's warmed-up StarPU models).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/task_lifecycle.hpp"
#include "obs/events.hpp"
#include "runtime/memory_manager.hpp"
#include "runtime/perf_model.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/trace.hpp"

namespace mp {

struct SimConfig {
  /// Relative stddev of execution-time noise (0 = deterministic).
  double noise_sigma = 0.0;
  std::uint64_t seed = 42;
  /// Pre-seed the history model with analytic truth (calibrated regime).
  bool calibrated = true;
  /// Worker task pipelining, as in StarPU: a busy worker pops its next
  /// task(s) early so their data transfers overlap with the current
  /// execution. 0 disables (POP-time-mapping schedulers then pay every
  /// fetch serially); StarPU prefetches a couple of tasks ahead.
  std::size_t pipeline_depth = 1;
  /// Safety valve for buggy schedulers: abort (with a stall diagnostic of
  /// stuck tasks, per-worker queues and heap sizes) if the count explodes.
  std::size_t max_events = 0;  // 0 = derived from task count
  /// Fault-injection plan; an empty plan leaves every engine path unchanged.
  FaultPlan fault;
  /// Decision-event sink handed to the scheduler via SchedContext; the engine
  /// itself adds REPUSH / WORKER_LOST / fault events. Null disables all
  /// recording (observer-free fast path). Not owned.
  SchedObserver* observer = nullptr;
};

struct SimResult {
  double makespan = 0.0;
  std::size_t tasks_executed = 0;
  std::size_t bytes_to_gpus = 0;
  std::size_t bytes_from_gpus = 0;
  std::size_t evictions = 0;           // memory-manager capacity evictions
  std::size_t failed_pops = 0;         // pop() calls returning nothing
  std::vector<double> idle_per_node;   // idle fraction per memory node
  /// Fault-injection outcome (failures_injected, retries, tasks_abandoned,
  /// workers_lost, degraded); all zero/false on fault-free runs.
  FaultStats fault;
};

class SimEngine : public PrefetchSink {
 public:
  SimEngine(const TaskGraph& graph, const Platform& platform, const PerfDatabase& perf,
            SimConfig config = {});

  /// Runs the whole DAG to completion under the policy; returns aggregate
  /// results. The detailed trace is available via trace() afterwards.
  SimResult run(const SchedulerFactory& make_scheduler);

  [[nodiscard]] const Trace& trace() const;
  [[nodiscard]] const MemoryManager& memory() const;
  [[nodiscard]] const HistoryModel& history() const;
  [[nodiscard]] Scheduler& scheduler();
  /// Pop-time δ(t, executed arch) per task: what the scheduler believed when
  /// it committed each placement (0 for never-executed tasks). Captured
  /// before the completion feeds the history model, so it is the honest
  /// input to RunAnalysis's perf-model audit.
  [[nodiscard]] std::span<const double> predicted_durations() const;

  // PrefetchSink (Dmdas-style push-time prefetch).
  void request_prefetch(DataId data, MemNodeId node) override;

 private:
  struct Event {
    double time = 0.0;
    std::uint64_t seq = 0;  // FIFO among simultaneous events
    enum class Kind { TryPop, Complete, WorkerLoss } kind = Kind::TryPop;
    WorkerId worker;
    TaskId task;

    [[nodiscard]] bool after(const Event& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  void schedule_try_pop(WorkerId w, double time);
  /// Does `w` want a TryPop now: alive, none queued, a pipeline slot free,
  /// and the policy's per-worker hint says maybe?
  [[nodiscard]] bool wants_work(WorkerId w) const;
  void wake_idle_workers();
  void handle_try_pop(WorkerId w);
  void handle_complete(const Event& e);
  void handle_worker_loss(const Event& e);
  /// Human-readable state dump for the max_events safety valve.
  [[nodiscard]] std::string stall_diagnostic(std::size_t processed) const;
  /// Charges transfer ops to the link timelines; returns when all complete.
  double charge_transfers(const std::vector<TransferOp>& ops, double start);
  void push_ready(TaskId t);
  /// Pops a task for `w` and acquires its data; returns false if the
  /// scheduler had nothing. The task lands in the worker's pending slot.
  bool fill_pending(WorkerId w);
  /// Starts executing the worker's pending task (must exist).
  void start_pending(WorkerId w);

  const TaskGraph& graph_;
  const Platform& platform_;
  const PerfDatabase& perf_;
  SimConfig cfg_;

  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::vector<Event> event_heap_;

  std::unique_ptr<HistoryModel> history_;
  std::unique_ptr<MemoryManager> memory_;
  std::unique_ptr<Scheduler> sched_;
  /// The context the policy was built with; also the liveness screen's.
  SchedContext sched_ctx_;
  std::unique_ptr<DepCounters> deps_;

  /// Popped-but-not-started tasks of a worker (the pipeline queue).
  struct PendingTask {
    TaskId task;
    double popped_at = 0.0;
    double data_ready_at = 0.0;
    /// Earliest start honouring per-handle commute mutual exclusion (0 when
    /// the task has no commute accesses).
    double start_floor = 0.0;
    double duration = 0.0;  // fixed at pop time (deterministic noise)
    double predicted = 0.0;  // δ(t, arch) at pop time
  };

  /// The attempt currently executing on a worker (valid iff worker_busy_).
  /// The trace is recorded only when the attempt *completes successfully*, so
  /// failed and interrupted attempts never appear as executions.
  struct RunningAttempt {
    PendingTask p;
    double exec_start = 0.0;
    double stall = 0.0;
  };

  std::vector<double> link_free_at_;     // per memory node
  /// Predicted drain time of a worker's running + pending tasks; exact
  /// because durations are fixed at pop time. Basis of the commute
  /// reservations below.
  std::vector<double> pipeline_free_at_;
  /// Per-handle serialization point for AccessMode::Commute, by DataId
  /// (0 = never reserved; sized in run()).
  std::vector<double> commute_free_at_;
  std::vector<std::uint8_t> worker_busy_;
  std::vector<std::vector<PendingTask>> pending_;  // per worker, FIFO
  std::vector<std::uint8_t> trypop_pending_;  // dedup of queued TryPop events
  std::size_t wake_rotor_ = 0;           // rotating wake order start
  std::vector<WorkerId> wake_;           // wake_idle_workers' scratch, reused
  std::vector<TransferOp> fetch_ops_;    // fill_pending's scratch, reused
  std::vector<TaskId> released_;         // handle_complete's scratch, reused
  std::size_t failed_pops_ = 0;
  bool running_ = false;

  // --- fault machinery (inert when cfg_.fault is empty) ---------------------
  std::unique_ptr<WorkerLiveness> liveness_;
  /// Attempts, retries, abandonment, fault stats, engine events, the trace.
  std::unique_ptr<TaskLifecycle> lifecycle_;
  std::vector<RunningAttempt> attempt_on_;  // per worker
};

/// Convenience wrapper: build everything, run once, return the result.
SimResult simulate(const TaskGraph& graph, const Platform& platform,
                   const PerfDatabase& perf, const SchedulerFactory& make_scheduler,
                   SimConfig config = {});

}  // namespace mp
