// The Internal locking contract: the sharded MultiPrio protocol (per-node
// shard locks, the Pending→Taken commit CAS, the live-mask slot-retire
// protocol and the work-epoch wait) explored end-to-end through
// ThreadExecutor's worker loop, the SkipNodeLock seeded mutation that proves
// the detector still detects now that cross-node races are benign by
// design, and the SerializedScheduler adapter that gives mutex-free
// policies the same contract.
//
// Exploration tests run only in -DMP_VERIFY=ON builds (`ctest -L verify`);
// the capability and determinism tests run in every build.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "core/multiprio.hpp"
#include "exec/thread_executor.hpp"
#include "obs/observer.hpp"
#include "runtime/serialized_scheduler.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"
#include "verify/explore.hpp"
#include "verify/mutation.hpp"

namespace mp {
namespace {

// Same 6-task DAG as test_verify.cpp (diamond plus two independents), but
// driven through the sharded default. `cpus` = 2 for the mutation tests:
// SkipNodeLock reintroduces same-node-worker races, which need two workers
// popping the same shard.
void run_sharded_fixture_once(bool with_observer, std::size_t cpus = 1) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("work", {ArchType::CPU, ArchType::GPU},
                                     [](const Task&, std::span<void* const>) {});
  std::vector<DataId> d;
  for (int i = 0; i < 5; ++i) d.push_back(g.add_data(64));
  g.submit(cl, {Access{d[0], AccessMode::Write}});
  g.submit(cl, {Access{d[0], AccessMode::Read}, Access{d[1], AccessMode::Write}});
  g.submit(cl, {Access{d[0], AccessMode::Read}, Access{d[2], AccessMode::Write}});
  g.submit(cl, {Access{d[1], AccessMode::Read}, Access{d[2], AccessMode::Read}});
  g.submit(cl, {Access{d[3], AccessMode::ReadWrite}});
  g.submit(cl, {Access{d[4], AccessMode::ReadWrite}});

  Platform p = test::small_platform(cpus, 1);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  RecordingObserver obs;
  ExecConfig cfg;
  cfg.stall_timeout = 0.05;
  if (with_observer) cfg.observer = &obs;
  const ExecResult r = exec.run(scheduler_factory("multiprio"), cfg);
  MP_CHECK_MSG(r.tasks_executed == 6, "fixture must execute all 6 tasks");
  if (with_observer) {
    MP_CHECK_MSG(obs.events().count(SchedEventKind::Pop) == 6,
                 "one POP event per executed task");
    MP_CHECK_MSG(obs.events().accounting_ok(), "event accounting out of balance");
  }
}

// --- capability plumbing (all builds) --------------------------------------

TEST(ShardedCapability, MultiPrioAndCoarseVariantAreInternal) {
  test::EdgeGraph eg(2, {});
  Platform p = test::small_platform(1, 1);
  test::ManualContext mc(eg.graph, p, test::flat_perf());

  const auto sharded = make_scheduler_by_name("multiprio", mc.ctx());
  EXPECT_EQ(sharded->concurrency(), SchedConcurrency::Internal);
  EXPECT_EQ(sharded->name(), "multiprio");

  // The coarse baseline is the same policy behind a SerializedScheduler,
  // which reports the wrapped policy's name.
  const auto coarse = make_scheduler_by_name("multiprio-coarse", mc.ctx());
  EXPECT_EQ(coarse->concurrency(), SchedConcurrency::Internal);
  EXPECT_EQ(coarse->name(), "multiprio");
  EXPECT_NE(dynamic_cast<SerializedScheduler*>(coarse.get()), nullptr);

  // Every mutex-free policy in src/sched/ asks for external serialization
  // (the executor wraps it in the adapter).
  for (const char* name : {"eager", "random", "lws", "dm", "dmda", "dmdas",
                           "heteroprio"}) {
    const auto s = make_scheduler_by_name(name, mc.ctx());
    EXPECT_EQ(s->concurrency(), SchedConcurrency::ExternalLock) << name;
  }
}

TEST(ShardedCapability, WorkEpochAdvancesOnPushTowardTheWorkerNode) {
  test::EdgeGraph eg(3, {});
  Platform p = test::small_platform(1, 1);
  test::ManualContext mc(eg.graph, p, test::flat_perf());
  MultiPrioScheduler s(mc.ctx());

  const WorkerId cpu{std::size_t{0}};
  const std::uint64_t before = s.work_epoch(cpu);
  s.push(eg.tasks[0]);
  const std::uint64_t after = s.work_epoch(cpu);
  EXPECT_GT(after, before) << "a push toward the worker's node must bump its epoch";

  // wait_for_work with a moved epoch returns immediately (predicate already
  // true) — the lost-wakeup closure the engine's park path relies on.
  s.wait_for_work(cpu, before, /*timeout_s=*/60.0, [] { return false; });
  // A canceled wait returns promptly too, epoch moved or not.
  s.wait_for_work(cpu, after, /*timeout_s=*/60.0, [] { return true; });
  s.interrupt_waiters();  // callable any time, with no waiters parked
}

// --- the SerializedScheduler adapter (all builds) --------------------------

// The adapter as ThreadExecutor builds it: around a mutex-free policy,
// serializing on an engine push mutex that the test holds for push-side
// calls (the Internal contract).
struct SerializedFixture {
  test::EdgeGraph eg;
  Platform p;
  test::ManualContext mc;
  Mutex push_mu;
  std::unique_ptr<SerializedScheduler> s;

  SerializedFixture()
      : eg(3, {}), p(test::small_platform(1, 1)), mc(eg.graph, p, test::flat_perf()) {
    SchedContext ctx = mc.ctx();
    ctx.push_mu = &push_mu;
    s = std::make_unique<SerializedScheduler>(ctx, make_scheduler_by_name("eager", ctx));
  }
};

TEST(SerializedAdapter, EpochMovesOnEveryStateChange) {
  SerializedFixture f;
  SerializedScheduler& s = *f.s;
  const WorkerId cpu{std::size_t{0}};
  const WorkerId gpu{std::size_t{1}};
  std::uint64_t seen = s.work_epoch(cpu);
  auto moved = [&] {
    const std::uint64_t now = s.work_epoch(cpu);
    const bool m = now != seen;
    seen = now;
    return m;
  };
  EXPECT_EQ(s.concurrency(), SchedConcurrency::Internal);
  EXPECT_EQ(s.name(), "eager");

  {
    std::lock_guard lock(f.push_mu);
    s.push(f.eg.tasks[0]);
  }
  EXPECT_TRUE(moved()) << "push";
  {
    std::lock_guard lock(f.push_mu);
    s.push_batch({f.eg.tasks[1], f.eg.tasks[2]});
  }
  EXPECT_TRUE(moved()) << "push_batch";
  const std::optional<TaskId> t = s.pop(cpu);
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(moved()) << "successful pop (and the start notice it forwards)";
  s.on_task_start(*t, cpu);
  EXPECT_FALSE(moved()) << "the start notice was forwarded by the pop";
  {
    // A completion: the end notice and its release batch share one section.
    std::lock_guard lock(f.push_mu);
    s.on_task_end(*t, cpu);
    s.push_batch({});
  }
  EXPECT_TRUE(moved()) << "on_task_end + push_batch";
  {
    std::lock_guard lock(f.push_mu);
    s.repush(*t);
  }
  EXPECT_TRUE(moved()) << "repush";
  EXPECT_EQ(s.pending_count(), 3u);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(s.pop(cpu).has_value());
  (void)moved();
  EXPECT_FALSE(s.pop(cpu).has_value());
  EXPECT_FALSE(moved()) << "a failed pop changes no state";
  {
    std::lock_guard lock(f.push_mu);
    f.mc.liveness.mark_dead(gpu);
    EXPECT_TRUE(s.notify_worker_removed(gpu).empty());
  }
  EXPECT_TRUE(moved()) << "notify_worker_removed";
  EXPECT_EQ(s.work_epoch(gpu), s.work_epoch(cpu)) << "one epoch for every worker";
}

// A FIFO that counts the start notices it receives.
class StartCountingFifo final : public Scheduler {
 public:
  using Scheduler::Scheduler;
  void push(TaskId t) override { queue_.push_back(t); }
  [[nodiscard]] std::optional<TaskId> pop(WorkerId /*w*/) override {
    if (queue_.empty()) return std::nullopt;
    const TaskId t = queue_.front();
    queue_.erase(queue_.begin());
    return t;
  }
  void on_task_start(TaskId /*t*/, WorkerId /*w*/) override { ++starts; }
  [[nodiscard]] std::string name() const override { return "start-counting-fifo"; }
  [[nodiscard]] std::size_t pending_count() const override { return queue_.size(); }

  std::size_t starts = 0;

 private:
  std::vector<TaskId> queue_;
};

TEST(SerializedAdapter, ForwardsEachStartNoticeOnce) {
  test::EdgeGraph eg(1, {});
  Platform p = test::small_platform(1, 1);
  test::ManualContext mc(eg.graph, p, test::flat_perf());
  const WorkerId cpu{std::size_t{0}};
  for (const bool threaded : {true, false}) {
    Mutex push_mu;
    SchedContext ctx = mc.ctx();
    if (threaded) ctx.push_mu = &push_mu;
    auto inner = std::make_unique<StartCountingFifo>(ctx);
    const StartCountingFifo& fifo = *inner;
    SerializedScheduler s(ctx, std::move(inner));
    {
      std::lock_guard lock(push_mu);
      s.push(eg.tasks[0]);
    }
    const std::optional<TaskId> t = s.pop(cpu);
    ASSERT_TRUE(t.has_value());
    // A threaded engine starts every task it pops, so the pop forwards the
    // notice in its own critical section; a single-threaded engine queues
    // popped tasks and starts them later (or drains them off a lost
    // worker), so the notice waits for its own call.
    EXPECT_EQ(fifo.starts, threaded ? 1u : 0u) << "threaded=" << threaded;
    s.on_task_start(*t, cpu);
    EXPECT_EQ(fifo.starts, 1u) << "threaded=" << threaded;
  }
}

TEST(SerializedAdapter, WaitReturnsAtOnceOnMovedEpochOrCancel) {
  SerializedFixture f;
  SerializedScheduler& s = *f.s;
  const WorkerId cpu{std::size_t{0}};
  const std::uint64_t before = s.work_epoch(cpu);
  {
    std::lock_guard lock(f.push_mu);
    s.push(f.eg.tasks[0]);
  }
  // Moved epoch: the predicate is already true, no wait.
  s.wait_for_work(cpu, before, /*timeout_s=*/60.0, [] { return false; });
  // A canceled wait returns promptly too, epoch moved or not.
  s.wait_for_work(cpu, s.work_epoch(cpu), /*timeout_s=*/60.0, [] { return true; });
  s.interrupt_waiters();  // callable any time, with no waiters parked
}

TEST(SerializedAdapter, ParkedWorkerWakesOnPush) {
  // Real threads: a worker that failed its pop parks on the epoch it read
  // before the pop; a push from another thread must wake it long before the
  // timeout, whether it lands before or after the worker parked.
  SerializedFixture f;
  SerializedScheduler& s = *f.s;
  const WorkerId cpu{std::size_t{0}};
  double waited = 0.0;
  Thread worker([&] {
    const std::uint64_t epoch = s.work_epoch(cpu);
    if (s.pop(cpu).has_value()) return;
    const double t0 = sync_now_seconds();
    s.wait_for_work(cpu, epoch, /*timeout_s=*/60.0, [] { return false; });
    waited = sync_now_seconds() - t0;
  });
  {
    std::lock_guard lock(f.push_mu);
    s.push(f.eg.tasks[0]);
  }
  worker.join();
  EXPECT_LT(waited, 30.0) << "the push's notify was lost";
}

// --- sharded == coarse decisions (all builds) ------------------------------

TEST(ShardedDeterminism, SimEngineShardedMatchesCoarseByteForByte) {
  // SimEngine hands the policy no push_mu, so the SerializedScheduler of
  // "multiprio-coarse" must be a pure forwarder: same pops, same evictions,
  // same event stream, same makespan as the bare policy.
  test::EdgeGraph eg(24, {{0, 8},  {1, 8},  {2, 9},  {3, 10}, {8, 16},
                          {9, 16}, {10, 17}, {4, 11}, {5, 12}, {11, 18},
                          {12, 18}, {6, 13}, {7, 14}, {13, 19}, {14, 19},
                          {15, 20}, {16, 21}, {17, 21}, {18, 22}, {19, 22}});
  const Platform p = test::small_platform(2, 2);
  const PerfDatabase db = test::flat_perf();
  auto run = [&](const std::string& name, RecordingObserver* obs) {
    SimConfig sc;
    sc.observer = obs;
    SimEngine engine(eg.graph, p, db, sc);
    return engine.run(scheduler_factory(name));
  };
  RecordingObserver obs_sharded;
  RecordingObserver obs_coarse;
  const SimResult sharded = run("multiprio", &obs_sharded);
  const SimResult coarse = run("multiprio-coarse", &obs_coarse);

  EXPECT_EQ(sharded.makespan, coarse.makespan);  // bitwise, not approximate
  EXPECT_EQ(sharded.tasks_executed, coarse.tasks_executed);
  EXPECT_EQ(sharded.evictions, coarse.evictions);
  EXPECT_EQ(sharded.failed_pops, coarse.failed_pops);
  EXPECT_EQ(obs_sharded.events().to_csv(), obs_coarse.events().to_csv())
      << "lock sharding must not change a single scheduling decision";
}

// --- exploration (MP_VERIFY builds) ----------------------------------------

TEST(ShardedExplore, TinyFixtureExhaustsScheduleSpace) {
  if (!verify::exploration_supported()) GTEST_SKIP() << "needs -DMP_VERIFY=ON";
  // Two independent tasks, 1 CPU + 1 GPU = a 2-memory-node platform: the
  // full sharded protocol (2 shard locks + push_mu + engine mu + per-shard
  // condvars) explored to exhaustion.
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::Exhaustive;
  cfg.max_schedules = 200000;
  const verify::ExploreResult r = verify::explore(
      [] {
        TaskGraph g;
        const CodeletId cl =
            g.add_codelet("work", {ArchType::CPU, ArchType::GPU},
                          [](const Task&, std::span<void* const>) {});
        const DataId a = g.add_data(64);
        const DataId b = g.add_data(64);
        g.submit(cl, {Access{a, AccessMode::ReadWrite}});
        g.submit(cl, {Access{b, AccessMode::ReadWrite}});
        Platform p = test::small_platform(1, 1);
        PerfDatabase db = test::flat_perf();
        ThreadExecutor exec(g, p, db);
        ExecConfig ecfg;
        ecfg.stall_timeout = 0.05;
        const ExecResult res = exec.run(scheduler_factory("multiprio"), ecfg);
        MP_CHECK(res.tasks_executed == 2);
      },
      cfg);
  EXPECT_FALSE(r.violation) << r.summary();
  EXPECT_EQ(r.timeout_schedules, 0u) << "lost wakeup: " << r.summary();
  EXPECT_TRUE(r.exhausted) << "DFS must terminate on the tiny sharded fixture, ran "
                           << r.schedules << " schedules";
  EXPECT_GT(r.schedules, 1u);
}

TEST(ShardedExplore, FixtureExploresCleanExhaustive) {
  if (!verify::exploration_supported()) GTEST_SKIP() << "needs -DMP_VERIFY=ON";
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::Exhaustive;
  cfg.max_schedules = 10000;  // budget-bounded; clean within it
  const verify::ExploreResult r =
      verify::explore([] { run_sharded_fixture_once(/*with_observer=*/false); }, cfg);
  EXPECT_FALSE(r.violation) << r.summary();
  EXPECT_EQ(r.timeout_schedules, 0u) << "lost wakeup: " << r.summary();
  EXPECT_GT(r.schedules, 1u);
}

TEST(ShardedExplore, FixtureWithObserverExploresCleanPct) {
  if (!verify::exploration_supported()) GTEST_SKIP() << "needs -DMP_VERIFY=ON";
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::Pct;
  cfg.max_schedules = 200;
  cfg.seed = 7;
  const verify::ExploreResult r =
      verify::explore([] { run_sharded_fixture_once(/*with_observer=*/true); }, cfg);
  EXPECT_FALSE(r.violation) << r.summary();
  EXPECT_EQ(r.timeout_schedules, 0u) << "lost wakeup: " << r.summary();
  EXPECT_EQ(r.schedules, 200u);
}

TEST(ShardedExplore, TwoSameNodeWorkersExploreClean) {
  if (!verify::exploration_supported()) GTEST_SKIP() << "needs -DMP_VERIFY=ON";
  // The same-node-contention fixture the mutation below corrupts — first
  // prove it is clean with the shard lock in place.
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::Pct;
  cfg.max_schedules = 500;
  cfg.seed = 3;
  const verify::ExploreResult r = verify::explore(
      [] { run_sharded_fixture_once(/*with_observer=*/false, /*cpus=*/2); }, cfg);
  EXPECT_FALSE(r.violation) << r.summary();
  EXPECT_EQ(r.timeout_schedules, 0u) << "lost wakeup: " << r.summary();
}

// A CPU worker releases a GPU-best task while the GPU worker is parked: the
// CPU's pop_condition refuses the task (the GPU is 10x faster and idle), so
// only a wake of the parked GPU worker lets the run finish without the
// stall timeout. The explorer models that timeout whenever every thread is
// blocked; a lost wakeup therefore shows up as a timeout schedule.
void run_gpu_best_release_once() {
  TaskGraph g;
  const auto nop = [](const Task&, std::span<void* const>) {};
  const CodeletId produce = g.add_codelet("produce", {ArchType::CPU}, nop);
  const CodeletId consume = g.add_codelet("consume", {ArchType::CPU, ArchType::GPU}, nop);
  const DataId d = g.add_data(64);
  SubmitOptions o;
  o.flops = 1e6;  // δ priors: 100 µs on the CPU, 10 µs on the GPU
  g.submit(produce, {Access{d, AccessMode::Write}}, o);
  g.submit(consume, {Access{d, AccessMode::ReadWrite}}, o);
  Platform p = test::small_platform(1, 1);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  ExecConfig ecfg;
  ecfg.stall_timeout = 0.05;
  const ExecResult r = exec.run(scheduler_factory("multiprio"), ecfg);
  MP_CHECK(r.tasks_executed == 2);
  MP_CHECK_MSG(test::tasks_per_worker(exec.trace(), p.num_workers())[1] == 1,
               "the GPU-best task must run on the GPU");
}

TEST(ShardedExplore, GpuBestReleaseWakesTheParkedGpuWorker) {
  if (!verify::exploration_supported()) GTEST_SKIP() << "needs -DMP_VERIFY=ON";
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::Exhaustive;
  cfg.max_schedules = 10000;  // measured: 420 schedules
  const verify::ExploreResult r = verify::explore(run_gpu_best_release_once, cfg);
  EXPECT_FALSE(r.violation) << r.summary();
  EXPECT_EQ(r.timeout_schedules, 0u) << "lost wakeup: " << r.summary();
  EXPECT_TRUE(r.exhausted) << r.summary();
}

TEST(ShardedMutation, SkipNodeLockIsCaughtExhaustive) {
  if (!verify::exploration_supported()) GTEST_SKIP() << "needs -DMP_VERIFY=ON";
  verify::ScopedMutation arm(verify::Mutation::SkipNodeLock);
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::Exhaustive;
  cfg.max_schedules = 10000;  // the detection budget the suite guarantees
  const verify::ExploreResult r = verify::explore(
      [] { run_sharded_fixture_once(/*with_observer=*/false, /*cpus=*/2); }, cfg);
  ASSERT_TRUE(r.violation)
      << "a POP running without its shard lock must be detected within 10k "
      << "interleavings; " << r.summary();
  EXPECT_FALSE(r.violation_message.empty());
  EXPECT_FALSE(r.violation_trace.empty()) << "violation must carry the schedule";
}

TEST(ShardedMutation, SkipNodeLockIsCaughtByPct) {
  if (!verify::exploration_supported()) GTEST_SKIP() << "needs -DMP_VERIFY=ON";
  verify::ScopedMutation arm(verify::Mutation::SkipNodeLock);
  verify::ExploreConfig cfg;
  cfg.mode = verify::ExploreConfig::Mode::Pct;
  cfg.max_schedules = 10000;
  cfg.seed = 1;
  const verify::ExploreResult r = verify::explore(
      [] { run_sharded_fixture_once(/*with_observer=*/false, /*cpus=*/2); }, cfg);
  EXPECT_TRUE(r.violation) << r.summary();
}

}  // namespace
}  // namespace mp
