// Threaded executor: real concurrent execution of DAGs with every policy,
// dependency safety under contention, and history-model feedback.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <mutex>
#include <thread>

#include "core/multiprio.hpp"
#include "exec/thread_executor.hpp"
#include "obs/observer.hpp"
#include "sched/schedulers.hpp"
#include "test_util.hpp"

namespace mp {
namespace {

TEST(ThreadExecutor, RunsEveryTaskExactlyOnce) {
  TaskGraph g;
  std::atomic<int> counter{0};
  const CodeletId cl = g.add_codelet(
      "count", {ArchType::CPU, ArchType::GPU},
      [&counter](const Task&, std::span<void* const>) { counter.fetch_add(1); });
  for (int i = 0; i < 50; ++i) {
    const DataId d = g.add_data(8);
    g.submit(cl, {Access{d, AccessMode::ReadWrite}});
  }
  Platform p = test::small_platform(3, 1);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  const ExecResult r = exec.run(scheduler_factory("multiprio"));
  EXPECT_EQ(counter.load(), 50);
  EXPECT_EQ(r.tasks_executed, 50u);
  std::size_t sum = 0;
  for (std::size_t c : test::tasks_per_worker(exec.trace(), p.num_workers())) sum += c;
  EXPECT_EQ(sum, 50u);
}

TEST(ThreadExecutor, DependencyOrderEnforced) {
  // Chain incrementing a shared cell: any reorder breaks the final value.
  TaskGraph g;
  double cell = 0.0;
  const CodeletId cl = g.add_codelet(
      "inc", {ArchType::CPU},
      [](const Task& t, std::span<void* const> buf) {
        auto* v = static_cast<double*>(buf[0]);
        // v must equal the task's position in the chain.
        *v = *v * 2.0 + static_cast<double>(t.iparams[0]);
      });
  const DataId d = g.add_data(sizeof(double), &cell);
  for (int i = 0; i < 12; ++i) {
    SubmitOptions o;
    o.iparams = {i, 0, 0, 0};
    g.submit(cl, {Access{d, AccessMode::ReadWrite}}, o);
  }
  Platform p = test::small_platform(4, 0);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  (void)exec.run(scheduler_factory("lws"));
  double expect = 0.0;
  for (int i = 0; i < 12; ++i) expect = expect * 2.0 + i;
  EXPECT_DOUBLE_EQ(cell, expect);
}

TEST(ThreadExecutor, ParallelReadersDoNotConflict) {
  TaskGraph g;
  double src_val = 7.0;
  std::vector<double> sinks(20, 0.0);
  const CodeletId copy = g.add_codelet(
      "copy", {ArchType::CPU, ArchType::GPU},
      [](const Task&, std::span<void* const> buf) {
        *static_cast<double*>(buf[1]) = *static_cast<const double*>(buf[0]);
      });
  const DataId src = g.add_data(sizeof(double), &src_val);
  for (int i = 0; i < 20; ++i) {
    const DataId dst = g.add_data(sizeof(double), &sinks[static_cast<std::size_t>(i)]);
    g.submit(copy, {Access{src, AccessMode::Read}, Access{dst, AccessMode::Write}});
  }
  Platform p = test::small_platform(4, 2);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  (void)exec.run(scheduler_factory("heteroprio"));
  for (double v : sinks) EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST(ThreadExecutor, GpuWorkersFallBackToCpuImplementation) {
  TaskGraph g;
  std::atomic<int> calls{0};
  const CodeletId cl = g.add_codelet(
      "gpuonly", {ArchType::GPU},
      [&calls](const Task&, std::span<void* const>) { calls.fetch_add(1); });
  for (int i = 0; i < 5; ++i) {
    const DataId d = g.add_data(8);
    g.submit(cl, {Access{d, AccessMode::ReadWrite}});
  }
  Platform p = test::small_platform(1, 1);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  EXPECT_EQ(exec.run(scheduler_factory("eager")).tasks_executed, 5u);
  EXPECT_EQ(calls.load(), 5);
  // All five must have run on the GPU worker (the only capable one).
  const WorkerId gpu_w = p.workers_of_node(MemNodeId{std::size_t{1}})[0];
  EXPECT_EQ(test::tasks_per_worker(exec.trace(), p.num_workers())[gpu_w.index()], 5u);
}

TEST(ThreadExecutor, DistinctGpuImplementationUsedWhenPresent) {
  TaskGraph g;
  std::atomic<int> cpu_calls{0};
  std::atomic<int> gpu_calls{0};
  const CodeletId cl = g.add_codelet(
      "dual", {ArchType::GPU},
      [&cpu_calls](const Task&, std::span<void* const>) { cpu_calls.fetch_add(1); },
      [&gpu_calls](const Task&, std::span<void* const>) { gpu_calls.fetch_add(1); });
  const DataId d = g.add_data(8);
  g.submit(cl, {Access{d, AccessMode::ReadWrite}});
  Platform p = test::small_platform(1, 1);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  (void)exec.run(scheduler_factory("eager"));
  EXPECT_EQ(gpu_calls.load(), 1);
  EXPECT_EQ(cpu_calls.load(), 0);
}

TEST(ThreadExecutor, DiamondJoinSeesBothBranches) {
  TaskGraph g;
  double left = 0.0;
  double right = 0.0;
  double joined = 0.0;
  const CodeletId set1 = g.add_codelet(
      "set", {ArchType::CPU}, [](const Task& t, std::span<void* const> buf) {
        *static_cast<double*>(buf[0]) = static_cast<double>(t.iparams[0]);
      });
  const CodeletId join = g.add_codelet(
      "join", {ArchType::CPU}, [](const Task&, std::span<void* const> buf) {
        *static_cast<double*>(buf[2]) = *static_cast<const double*>(buf[0]) +
                                        *static_cast<const double*>(buf[1]);
      });
  const DataId dl = g.add_data(sizeof(double), &left);
  const DataId dr = g.add_data(sizeof(double), &right);
  const DataId dj = g.add_data(sizeof(double), &joined);
  SubmitOptions ol;
  ol.iparams = {21, 0, 0, 0};
  g.submit(set1, {Access{dl, AccessMode::Write}}, ol);
  SubmitOptions orr;
  orr.iparams = {21, 0, 0, 0};
  g.submit(set1, {Access{dr, AccessMode::Write}}, orr);
  g.submit(join, {Access{dl, AccessMode::Read}, Access{dr, AccessMode::Read},
                  Access{dj, AccessMode::Write}});
  Platform p = test::small_platform(2, 0);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  (void)exec.run(scheduler_factory("multiprio"));
  EXPECT_DOUBLE_EQ(joined, 42.0);
}

class ExecutorPolicies : public ::testing::TestWithParam<std::string> {};

TEST_P(ExecutorPolicies, StressManySmallTasks) {
  TaskGraph g;
  std::atomic<int> counter{0};
  const CodeletId cl = g.add_codelet(
      "tick", {ArchType::CPU, ArchType::GPU},
      [&counter](const Task&, std::span<void* const>) { counter.fetch_add(1); });
  // Layered graph with fan-in/fan-out through shared handles.
  std::vector<DataId> layer;
  for (int i = 0; i < 8; ++i) layer.push_back(g.add_data(8));
  for (int l = 0; l < 10; ++l) {
    for (int i = 0; i < 8; ++i) {
      const DataId in = layer[static_cast<std::size_t>((i + l) % 8)];
      const DataId out = layer[static_cast<std::size_t>(i)];
      g.submit(cl, {Access{in, AccessMode::Read}, Access{out, AccessMode::ReadWrite}});
    }
  }
  Platform p = test::small_platform(3, 1);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  const ExecResult r = exec.run(scheduler_factory(GetParam()));
  EXPECT_EQ(counter.load(), 80);
  EXPECT_EQ(r.tasks_executed, 80u);
}

INSTANTIATE_TEST_SUITE_P(Policies, ExecutorPolicies,
                         ::testing::Values("eager", "random", "lws", "dm", "dmda",
                                           "dmdas", "heteroprio", "multiprio",
                                           "multiprio-coarse"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

// --- wakeups: parked workers are woken for the work their node cannot absorb

void spin_for(double seconds) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < until) {
  }
}

/// Tracks how many kernels run at once.
struct Concurrency {
  std::atomic<int> now{0};
  std::atomic<int> peak{0};

  void enter() {
    const int n = now.fetch_add(1) + 1;
    int seen = peak.load();
    while (n > seen && !peak.compare_exchange_weak(seen, n)) {
    }
  }
  void leave() { now.fetch_sub(1); }
};

std::uint64_t counter_value(const RecordingObserver& obs, const std::string& name) {
  for (const auto& [n, c] : obs.metrics_registry().counters())
    if (n == name) return c->value();
  return 0;
}

TEST(ThreadExecutorWakeups, FanOutReachesEveryWorkerOfTheNode) {
  // A root releases 12 kernels of 5 ms on one node of 4 CPU workers. The
  // pusher absorbs one; the other three parked workers must be woken (the
  // children share the root's history bucket, so their δ is calibrated at
  // release), and none may sit out the 30 s stall timeout.
  TaskGraph g;
  Concurrency conc;
  const CodeletId spin = g.add_codelet(
      "spin", {ArchType::CPU}, [&conc](const Task&, std::span<void* const>) {
        conc.enter();
        spin_for(5e-3);
        conc.leave();
      });
  const DataId root_out = g.add_data(64);
  g.submit(spin, {Access{root_out, AccessMode::Write}, Access{g.add_data(64), AccessMode::ReadWrite}});
  for (int i = 0; i < 12; ++i)
    g.submit(spin, {Access{root_out, AccessMode::Read}, Access{g.add_data(64), AccessMode::ReadWrite}});
  static_assert(5e-3 >= MultiPrioScheduler::kMinWakeTaskTime);
  Platform p = test::small_platform(4, 0);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  ExecConfig cfg;
  cfg.stall_timeout = 30.0;
  const ExecResult r = exec.run(scheduler_factory("multiprio"), cfg);
  EXPECT_EQ(r.tasks_executed, 13u);
  EXPECT_EQ(conc.peak.load(), 4) << "every worker of the node must run a child";
  EXPECT_EQ(r.stall_timeouts, 0u);
}

TEST(ThreadExecutorWakeups, CpuReleasedGpuBestTasksNeverStall) {
  // 3 CPU workers on the RAM node, 1 GPU-tagged worker on its own node, a
  // GPU 10x faster in the δ priors. CPU-only producers release GPU-best
  // consumers while the GPU worker is parked. The CPU workers refuse them:
  // with at most 9 pending, the GPU backlog never exceeds a consumer's CPU
  // time, so the pop_condition never diverts one. Consumers stay under the
  // wake gate, so only the progress wake can get the GPU worker up; without
  // it the run waits for the stall timeout.
  for (int rep = 0; rep < 5; ++rep) {
    TaskGraph g;
    // Producers long enough that the GPU worker has parked before the
    // first consumer is released.
    const auto cpu_spin = [](const Task&, std::span<void* const>) { spin_for(2e-3); };
    const auto gpu_spin = [](const Task&, std::span<void* const>) { spin_for(5e-6); };
    static_assert(5e-6 < MultiPrioScheduler::kMinWakeTaskTime);
    const CodeletId produce = g.add_codelet("produce", {ArchType::CPU}, cpu_spin);
    const CodeletId consume =
        g.add_codelet("consume", {ArchType::CPU, ArchType::GPU}, cpu_spin, gpu_spin);
    SubmitOptions o;
    o.flops = 1e7;  // δ priors: 1 ms on a CPU, 100 µs on the GPU
    for (int i = 0; i < 3; ++i) {
      const DataId d = g.add_data(64);
      g.submit(produce, {Access{d, AccessMode::Write}}, o);
      for (int j = 0; j < 3; ++j)
        g.submit(consume, {Access{d, AccessMode::Read}, Access{g.add_data(64), AccessMode::ReadWrite}}, o);
    }
    Platform p = test::small_platform(3, 1);
    PerfDatabase db = test::flat_perf();
    ThreadExecutor exec(g, p, db);
    ExecConfig cfg;
    cfg.stall_timeout = 1.0;
    const ExecResult r = exec.run(scheduler_factory("multiprio"), cfg);
    ASSERT_EQ(r.tasks_executed, 12u);
    EXPECT_EQ(test::tasks_per_worker(exec.trace(), p.num_workers())[3], 9u)
        << "rep " << rep << ": every consumer runs on the GPU";
    EXPECT_EQ(r.stall_timeouts, 0u) << "rep " << rep << ": a parked worker sat out the timeout";
  }
}

TEST(ThreadExecutorWakeups, ShortTasksDoNotWakeParkedWorkers) {
  // Empty kernels in stages: a join releases 50 leaves, and the next join
  // waits for all of them, so the other workers park between stages and
  // every release finds three of them parked. No task is long enough to pay
  // for a wake: calibrated δ is far under the gate, and the large
  // default-rate priors (flops = 1e9: 0.1 s) of the leaves' fresh bucket
  // in each stage (a new footprint) must not count. Waking for every
  // further task would send about 3 wakeups per stage; the count must not
  // grow with the DAG.
  for (const int stages : {100, 200}) {
    TaskGraph g;
    const CodeletId cl = g.add_codelet("empty", {ArchType::CPU},
                                       [](const Task&, std::span<void* const>) {});
    SubmitOptions o;
    o.flops = 1e9;
    std::vector<Access> join{Access{g.add_data(64), AccessMode::Write}};
    for (int k = 0; k < stages; ++k) {
      const DataId released = g.add_data(64);
      join.push_back(Access{released, AccessMode::Write});
      g.submit(cl, std::span<const Access>(join), o);
      join.clear();
      for (int j = 0; j < 50; ++j) {
        const DataId leaf = g.add_data(static_cast<std::size_t>(128 + k));
        g.submit(cl, {Access{released, AccessMode::Read}, Access{leaf, AccessMode::Write}}, o);
        join.push_back(Access{leaf, AccessMode::Read});
      }
    }
    ASSERT_GE(g.num_tasks(), 5000u);
    Platform p = test::small_platform(4, 0);
    PerfDatabase db = test::flat_perf();
    ThreadExecutor exec(g, p, db);
    RecordingObserver obs;
    ExecConfig cfg;
    cfg.observer = &obs;
    const ExecResult r = exec.run(scheduler_factory("multiprio"), cfg);
    ASSERT_EQ(r.tasks_executed, g.num_tasks());
    EXPECT_LE(counter_value(obs, "sched.wakeups"), 16u) << g.num_tasks() << " tasks";
  }
}

/// An internally locked FIFO whose epoch never moves: every park sits out
/// the full timeout, as a lost wakeup would.
class NeverSignals final : public Scheduler {
 public:
  using Scheduler::Scheduler;
  void push(TaskId t) override {
    const std::lock_guard lock(mu_);
    q_.push_back(t);
  }
  std::optional<TaskId> pop(WorkerId) override {
    const std::lock_guard lock(mu_);
    if (q_.empty()) return std::nullopt;
    const TaskId t = q_.front();
    q_.pop_front();
    return t;
  }
  SchedConcurrency concurrency() const override { return SchedConcurrency::Internal; }
  void wait_for_work(WorkerId, std::uint64_t, double timeout_s,
                     const std::function<bool()>&) override {
    std::this_thread::sleep_for(std::chrono::duration<double>(timeout_s));
  }
  std::string name() const override { return "never-signals"; }
  std::size_t pending_count() const override {
    const std::lock_guard lock(mu_);
    return q_.size();
  }

 private:
  mutable std::mutex mu_;
  std::deque<TaskId> q_;
};

TEST(ThreadExecutorWakeups, StallTimeoutsCountParksRescuedByTheTimeout) {
  TaskGraph g;  // a chain of 3 kernels of 10 ms: the second worker parks
  const CodeletId cl = g.add_codelet(
      "spin", {ArchType::CPU}, [](const Task&, std::span<void* const>) { spin_for(10e-3); });
  const DataId d = g.add_data(8);
  for (int i = 0; i < 3; ++i) g.submit(cl, {Access{d, AccessMode::ReadWrite}});
  Platform p = test::small_platform(2, 0);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  RecordingObserver obs;
  ExecConfig cfg;
  cfg.stall_timeout = 0.02;
  cfg.observer = &obs;
  const ExecResult r = exec.run(
      [](SchedContext ctx) { return std::make_unique<NeverSignals>(std::move(ctx)); }, cfg);
  EXPECT_EQ(r.tasks_executed, 3u);
  EXPECT_GE(r.stall_timeouts, 1u);
  EXPECT_EQ(counter_value(obs, "exec.stall_timeouts"), r.stall_timeouts);
}

// --- the property sweep on the real engine ------------------------------------
// Random DAGs with Commute accesses, every policy, with and without transient
// failures. run() itself checks dependency order (Trace::record rejects a
// segment that starts before a predecessor ended); the test checks what the
// trace and the events say.

class RealRunInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, bool>> {};

TEST_P(RealRunInvariants, ExecutedOnceInDependencyOrderAndCommuteExclusive) {
  const auto& [name, faulty] = GetParam();
  // Kernels of a few microseconds, so that commuters could overlap if the
  // per-handle locks were missing.
  const TaskGraph g =
      test::fuzz_graph(31, 48, [](const Task&, std::span<void* const>) { spin_for(20e-6); });
  Platform p = test::small_platform(3, 1);
  PerfDatabase db = test::flat_perf();
  RecordingObserver obs;
  ExecConfig cfg;
  cfg.stall_timeout = 0.05;
  cfg.observer = &obs;
  if (faulty) {
    cfg.fault.seed = 7;
    cfg.fault.transient.push_back(TransientFaultSpec{CodeletId{}, 0.25});
  }
  ThreadExecutor exec(g, p, db);
  const ExecResult r = exec.run(scheduler_factory(name), cfg);
  const Trace& trace = exec.trace();
  if (faulty) {
    EXPECT_GT(r.fault.failures_injected, 0u);
  }

  // Every task executed or abandoned, exactly once.
  std::vector<int> settled(g.num_tasks(), 0);
  for (const TraceSegment& s : trace.segments()) ++settled[s.task.index()];
  for (const SchedEvent& e : obs.events().snapshot())
    if (e.kind == SchedEventKind::TaskAbandoned) ++settled[e.task.index()];
  for (std::size_t i = 0; i < g.num_tasks(); ++i)
    EXPECT_EQ(settled[i], 1) << "task " << i;
  EXPECT_EQ(r.tasks_executed, trace.num_executed());

  // Commute exclusion: the segments of one Commute handle never overlap.
  std::map<std::uint32_t, std::vector<std::pair<double, double>>> windows;
  for (const TraceSegment& s : trace.segments())
    for (const Access& a : g.task(s.task).accesses)
      if (a.mode == AccessMode::Commute)
        windows[a.data.value()].emplace_back(s.exec_start, s.end);
  for (auto& [d, w] : windows) {
    std::sort(w.begin(), w.end());
    for (std::size_t i = 1; i < w.size(); ++i)
      EXPECT_LE(w[i - 1].second, w[i].first) << "handle " << d << " overlap at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RealRunInvariants,
    ::testing::Combine(::testing::ValuesIn(scheduler_names()), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<std::string, bool>>& info) {
      std::string name = std::get<0>(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name + (std::get<1>(info.param) ? "_faulty" : "_clean");
    });

}  // namespace
}  // namespace mp
