// Fault tolerance in the threaded executor: thrown kernels become retries,
// injected transient failures are retried against the budget, exhausted
// budgets abandon the descendant closure, and fail-stop worker loss degrades
// onto the survivors. The parity tests run one graph and plan on both
// engines: fault outcomes that do not depend on the schedule must agree.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "exec/thread_executor.hpp"
#include "obs/observer.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

namespace mp {
namespace {

TEST(ThreadExecutorFault, ThrownKernelIsRetriedWithoutAPlan) {
  TaskGraph g;
  constexpr int kTasks = 20;
  std::vector<std::atomic<int>> calls(kTasks);
  const CodeletId cl = g.add_codelet(
      "flaky", {ArchType::CPU, ArchType::GPU},
      [&calls](const Task& t, std::span<void* const>) {
        // First attempt of every task throws; the retry succeeds.
        if (calls[t.iparams[0]].fetch_add(1) == 0)
          throw std::runtime_error("transient");
      });
  for (int i = 0; i < kTasks; ++i) {
    const DataId d = g.add_data(8);
    SubmitOptions o;
    o.iparams = {i, 0, 0, 0};
    g.submit(cl, {Access{d, AccessMode::ReadWrite}}, o);
  }
  Platform p = test::small_platform(3, 1);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  const ExecResult r = exec.run(scheduler_factory("multiprio"));
  EXPECT_EQ(r.tasks_executed, static_cast<std::size_t>(kTasks));
  EXPECT_EQ(r.fault.failures_injected, static_cast<std::size_t>(kTasks));
  EXPECT_EQ(r.fault.retries, static_cast<std::size_t>(kTasks));
  EXPECT_EQ(r.fault.tasks_abandoned, 0u);
  EXPECT_FALSE(r.fault.degraded);
  for (auto& c : calls) EXPECT_EQ(c.load(), 2);  // one failure + one success
}

TEST(ThreadExecutorFault, InjectedTransientFailuresRetryToCompletion) {
  TaskGraph g;
  std::atomic<int> runs{0};
  const CodeletId cl = g.add_codelet(
      "tick", {ArchType::CPU, ArchType::GPU},
      [&runs](const Task&, std::span<void* const>) { runs.fetch_add(1); });
  for (int i = 0; i < 40; ++i) {
    const DataId d = g.add_data(8);
    g.submit(cl, {Access{d, AccessMode::ReadWrite}});
  }
  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  ExecConfig cfg;
  cfg.stall_timeout = 0.05;
  cfg.fault.transient.push_back(TransientFaultSpec{CodeletId{}, 0.4});
  cfg.fault.retry_budget = 30;
  const ExecResult r = exec.run(scheduler_factory("eager"), cfg);
  EXPECT_EQ(r.tasks_executed, 40u);
  EXPECT_GT(r.fault.failures_injected, 0u);
  EXPECT_EQ(r.fault.retries, r.fault.failures_injected);
  EXPECT_EQ(r.fault.tasks_abandoned, 0u);
  // Every attempt runs the kernel; failed attempts discard the result.
  EXPECT_EQ(runs.load(), 40 + static_cast<int>(r.fault.failures_injected));
}

TEST(ThreadExecutorFault, ExhaustedBudgetAbandonsDescendants) {
  // A 3-chain that always throws, plus an independent healthy task.
  TaskGraph g;
  std::atomic<int> ok_runs{0};
  const CodeletId bad = g.add_codelet(
      "bad", {ArchType::CPU},
      [](const Task&, std::span<void* const>) { throw std::runtime_error("hw"); });
  const CodeletId ok = g.add_codelet(
      "ok", {ArchType::CPU},
      [&ok_runs](const Task&, std::span<void* const>) { ok_runs.fetch_add(1); });
  const DataId chain = g.add_data(8);
  g.submit(bad, {Access{chain, AccessMode::ReadWrite}});
  g.submit(bad, {Access{chain, AccessMode::ReadWrite}});
  g.submit(bad, {Access{chain, AccessMode::ReadWrite}});
  const DataId solo = g.add_data(8);
  g.submit(ok, {Access{solo, AccessMode::ReadWrite}});
  Platform p = test::small_platform(2, 0);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  ExecConfig cfg;
  cfg.stall_timeout = 0.05;
  cfg.fault.retry_budget = 2;
  const ExecResult r = exec.run(scheduler_factory("lws"), cfg);
  EXPECT_EQ(r.tasks_executed, 1u);
  EXPECT_EQ(r.fault.tasks_abandoned, 3u);  // head + the two chained successors
  EXPECT_EQ(r.fault.failures_injected, 3u);  // head: 1 try + 2 retries
  EXPECT_TRUE(r.fault.degraded);
  EXPECT_EQ(ok_runs.load(), 1);
}

TEST(ThreadExecutorFault, WorkerLossDegradesOntoSurvivors) {
  TaskGraph g;
  std::atomic<int> runs{0};
  const CodeletId cl = g.add_codelet(
      "tick", {ArchType::CPU, ArchType::GPU},
      [&runs](const Task&, std::span<void* const>) { runs.fetch_add(1); });
  for (int i = 0; i < 30; ++i) {
    const DataId d = g.add_data(8);
    g.submit(cl, {Access{d, AccessMode::ReadWrite}});
  }
  Platform p = test::small_platform(2, 1);
  WorkerId gpu_w{};
  for (const Worker& w : p.workers())
    if (w.arch == ArchType::GPU) gpu_w = w.id;
  PerfDatabase db = test::flat_perf();

  for (const char* name : {"multiprio", "eager", "heteroprio"}) {
    runs.store(0);
    ThreadExecutor exec(g, p, db);
    ExecConfig cfg;
    cfg.stall_timeout = 0.05;
    cfg.fault.worker_losses.push_back(WorkerLossSpec{gpu_w, 0.0});  // dies at start
    const ExecResult r = exec.run(scheduler_factory(name), cfg);
    EXPECT_EQ(r.tasks_executed, 30u) << name;
    EXPECT_EQ(runs.load(), 30) << name;
    EXPECT_EQ(r.fault.workers_lost, 1u) << name;
    EXPECT_EQ(r.fault.tasks_abandoned, 0u) << name;
    EXPECT_TRUE(r.fault.degraded) << name;
    EXPECT_EQ(test::tasks_per_worker(exec.trace(), p.num_workers())[gpu_w.index()], 0u)
        << name;
  }
}

TEST(ThreadExecutorFault, MidRunWorkerLossUnderEveryPolicy) {
  // A loss while the others are popping and pushing: liveness flips and the
  // policy rebuilds in one push-side critical section, so every policy —
  // the mutex-free ones behind the executor's SerializedScheduler included —
  // must finish the run on the survivors without losing or repeating a task.
  TaskGraph g;
  std::atomic<int> runs{0};
  const CodeletId cl = g.add_codelet(
      "nap", {ArchType::CPU, ArchType::GPU},
      [&runs](const Task&, std::span<void* const>) {
        runs.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      });
  for (int i = 0; i < 60; ++i) {
    const DataId d = g.add_data(8);
    g.submit(cl, {Access{d, AccessMode::ReadWrite}});
  }
  Platform p = test::small_platform(2, 1);
  WorkerId gpu_w{};
  for (const Worker& w : p.workers())
    if (w.arch == ArchType::GPU) gpu_w = w.id;
  PerfDatabase db = test::flat_perf();

  for (const std::string& name : scheduler_names()) {
    runs.store(0);
    ThreadExecutor exec(g, p, db);
    ExecConfig cfg;
    cfg.stall_timeout = 0.05;
    cfg.fault.worker_losses.push_back(WorkerLossSpec{gpu_w, 0.002});
    const ExecResult r = exec.run(scheduler_factory(name), cfg);
    EXPECT_EQ(r.tasks_executed, 60u) << name;
    EXPECT_EQ(runs.load(), 60) << name;
    EXPECT_EQ(r.fault.workers_lost, 1u) << name;
    EXPECT_EQ(r.fault.tasks_abandoned, 0u) << name;
  }
}

TEST(ThreadExecutorFault, LossOfOnlyCapableWorkerAbandonsOrphans) {
  TaskGraph g;
  std::atomic<int> runs{0};
  const CodeletId gpu_only = g.add_codelet(
      "gonly", {ArchType::GPU},
      [&runs](const Task&, std::span<void* const>) { runs.fetch_add(1); });
  const DataId head = g.add_data(8);
  g.submit(gpu_only, {Access{head, AccessMode::ReadWrite}});
  g.submit(gpu_only, {Access{head, AccessMode::ReadWrite}});
  Platform p = test::small_platform(2, 1);
  WorkerId gpu_w{};
  for (const Worker& w : p.workers())
    if (w.arch == ArchType::GPU) gpu_w = w.id;
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  ExecConfig cfg;
  cfg.stall_timeout = 0.05;
  cfg.fault.worker_losses.push_back(WorkerLossSpec{gpu_w, 0.0});
  const ExecResult r = exec.run(scheduler_factory("eager"), cfg);
  EXPECT_EQ(r.tasks_executed, 0u);
  EXPECT_EQ(r.fault.tasks_abandoned, 2u);
  EXPECT_EQ(runs.load(), 0);
  EXPECT_TRUE(r.fault.degraded);
}

TEST(ThreadExecutorFault, StragglersSlowButDoNotBreakTheRun) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet(
      "tick", {ArchType::CPU, ArchType::GPU},
      [](const Task&, std::span<void* const>) {});
  for (int i = 0; i < 10; ++i) {
    const DataId d = g.add_data(8);
    g.submit(cl, {Access{d, AccessMode::ReadWrite}});
  }
  Platform p = test::small_platform(2, 0);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  ExecConfig cfg;
  cfg.stall_timeout = 0.05;
  cfg.fault.stragglers.push_back(StragglerSpec{CodeletId{}, 1.0, 2.0});
  const ExecResult r = exec.run(scheduler_factory("random"), cfg);
  EXPECT_EQ(r.tasks_executed, 10u);
  EXPECT_EQ(r.fault.stragglers_injected, 10u);
  EXPECT_FALSE(r.fault.degraded);
}

// --- cross-engine parity -------------------------------------------------------

/// Random DAG over shared handles (ReadWrite plus optional Read accesses),
/// runnable on both engines: its one codelet has a no-op CPU kernel.
TaskGraph random_dag(std::uint64_t seed, std::size_t n_tasks) {
  Rng rng(seed);
  TaskGraph g;
  const CodeletId cl = g.add_codelet("work", {ArchType::CPU, ArchType::GPU},
                                     [](const Task&, std::span<void* const>) {});
  std::vector<DataId> data;
  for (std::size_t i = 0; i < n_tasks / 3 + 2; ++i) data.push_back(g.add_data(1024));
  for (std::size_t i = 0; i < n_tasks; ++i) {
    std::vector<Access> acc{Access{data[rng.next_in(0, data.size() - 1)], AccessMode::ReadWrite}};
    const DataId extra = data[rng.next_in(0, data.size() - 1)];
    if (extra != acc.front().data && rng.next_double() < 0.6)
      acc.push_back(Access{extra, AccessMode::Read});
    SubmitOptions o;
    o.flops = 1e6 * static_cast<double>(1 + rng.next_in(0, 20));
    (void)g.submit(cl, std::span<const Access>(acc), std::move(o));
  }
  return g;
}

/// Fault outcome and TASK_ABANDONED tasks of one run.
struct FaultOutcome {
  FaultStats stats;
  std::uint64_t straggler_events = 0;
  std::set<std::size_t> abandoned;
};

FaultOutcome outcome_of(const FaultStats& stats, const RecordingObserver& obs) {
  FaultOutcome o{stats, obs.events().count(SchedEventKind::FaultStraggler), {}};
  for (const SchedEvent& e : obs.events().snapshot())
    if (e.kind == SchedEventKind::TaskAbandoned) o.abandoned.insert(e.task.index());
  return o;
}

FaultOutcome simulated(const TaskGraph& g, const Platform& p, const FaultPlan& plan,
                       const std::string& policy) {
  RecordingObserver obs;
  SimConfig cfg;
  cfg.fault = plan;
  cfg.observer = &obs;
  const SimResult r = simulate(g, p, test::flat_perf(), scheduler_factory(policy), cfg);
  return outcome_of(r.fault, obs);
}

FaultOutcome executed(const TaskGraph& g, const Platform& p, const FaultPlan& plan,
                      const std::string& policy) {
  RecordingObserver obs;
  ExecConfig cfg;
  cfg.fault = plan;
  cfg.observer = &obs;
  cfg.stall_timeout = 0.05;
  const PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  const ExecResult r = exec.run(scheduler_factory(policy), cfg);
  return outcome_of(r.fault, obs);
}

TEST(EngineFaultParity, SpeedUpStragglersCountOnBothEngines) {
  // A multiplier below 1 is a valid straggler: both engines count it, even
  // though the executor cannot make a real kernel run faster.
  const TaskGraph g = random_dag(3, 24);
  const Platform p = test::small_platform(2, 1);
  FaultPlan plan;
  plan.stragglers.push_back(StragglerSpec{CodeletId{}, 1.0, 0.5});
  const FaultOutcome sim = simulated(g, p, plan, "eager");
  const FaultOutcome exec = executed(g, p, plan, "eager");
  EXPECT_EQ(sim.stats.stragglers_injected, g.num_tasks());
  EXPECT_EQ(exec.stats.stragglers_injected, sim.stats.stragglers_injected);
  EXPECT_EQ(sim.straggler_events, g.num_tasks());
  EXPECT_EQ(exec.straggler_events, sim.straggler_events);
}

TEST(EngineFaultParity, TransientOutcomeIsScheduleIndependentUnderEveryPolicy) {
  // Transient failures are a function of (plan seed, task, attempt) and
  // abandonment follows the DAG, so every policy on either engine must
  // report the same fault outcome.
  const TaskGraph g = random_dag(11, 60);
  const Platform p = test::small_platform(2, 1);
  FaultPlan plan;
  plan.transient.push_back(TransientFaultSpec{CodeletId{}, 0.3});
  plan.retry_budget = 1;
  const FaultOutcome ref = simulated(g, p, plan, "eager");
  // The plan must exhaust some budgets without abandoning the whole DAG.
  ASSERT_GT(ref.stats.tasks_abandoned, 0u);
  ASSERT_LT(ref.stats.tasks_abandoned, g.num_tasks());
  ASSERT_EQ(ref.abandoned.size(), ref.stats.tasks_abandoned);
  for (const std::string& name : scheduler_names()) {
    for (const auto& [engine, got] : {std::pair{"sim", simulated(g, p, plan, name)},
                                      std::pair{"exec", executed(g, p, plan, name)}}) {
      SCOPED_TRACE(std::string(engine) + " " + name);
      EXPECT_EQ(got.stats.failures_injected, ref.stats.failures_injected);
      EXPECT_EQ(got.stats.retries, ref.stats.retries);
      EXPECT_EQ(got.stats.tasks_abandoned, ref.stats.tasks_abandoned);
      EXPECT_EQ(got.stats.degraded, ref.stats.degraded);
      EXPECT_EQ(got.abandoned, ref.abandoned);
    }
  }
}

// A broken policy that hands any task to any worker, whatever its arch.
class ArchBlindFifo final : public Scheduler {
 public:
  using Scheduler::Scheduler;
  void push(TaskId t) override { queue_.push_back(t); }
  [[nodiscard]] std::optional<TaskId> pop(WorkerId /*w*/) override {
    if (head_ >= queue_.size()) return std::nullopt;
    return queue_[head_++];
  }
  [[nodiscard]] std::string name() const override { return "arch-blind-fifo"; }
  [[nodiscard]] std::size_t pending_count() const override { return queue_.size() - head_; }

 private:
  std::vector<TaskId> queue_;
  std::size_t head_ = 0;
};

TEST(ThreadExecutorFaultDeath, WrongArchPopAborts) {
  // The executor runs the lifecycle's pop check: a GPU-only task handed to
  // a CPU worker aborts before its kernel runs.
  TaskGraph g;
  const CodeletId gpu_only =
      g.add_codelet("gpu_only", {ArchType::GPU}, [](const Task&, std::span<void* const>) {});
  (void)g.submit(gpu_only, {Access{g.add_data(8), AccessMode::ReadWrite}});
  Platform p = test::small_platform(1, 0);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  const SchedulerFactory blind = [](SchedContext ctx) {
    return std::make_unique<ArchBlindFifo>(std::move(ctx));
  };
  EXPECT_DEATH((void)exec.run(blind), "scheduler mapped task to wrong arch");
}

}  // namespace
}  // namespace mp
