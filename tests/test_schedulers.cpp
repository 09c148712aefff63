// Cross-policy property tests: every registered scheduler must run random
// DAGs to completion with a valid trace, on several platform shapes; plus
// policy-specific behaviour checks for the baselines.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

namespace mp {
namespace {

/// Random layered DAG with a mix of CPU-only / GPU-only / dual codelets.
TaskGraph random_graph(std::uint64_t seed, std::size_t n_tasks, bool with_gpu_only) {
  Rng rng(seed);
  TaskGraph g;
  const CodeletId both = g.add_codelet("both", {ArchType::CPU, ArchType::GPU});
  const CodeletId conly = g.add_codelet("conly", {ArchType::CPU});
  const CodeletId gonly = g.add_codelet("gonly", {ArchType::GPU});
  std::vector<DataId> data;
  for (std::size_t i = 0; i < n_tasks; ++i)
    data.push_back(g.add_data(512 + rng.next_in(0, 4096)));
  for (std::size_t i = 0; i < n_tasks; ++i) {
    std::vector<Access> acc;
    acc.push_back(Access{data[i], AccessMode::ReadWrite});
    // Read a couple of earlier outputs to create dependencies.
    for (int k = 0; k < 2 && i > 0; ++k) {
      const std::size_t j = rng.next_in(0, i - 1);
      if (j != i) acc.push_back(Access{data[j], AccessMode::Read});
    }
    const double pick = rng.next_double();
    CodeletId cl = both;
    if (pick < 0.15) cl = conly;
    if (pick > 0.9 && with_gpu_only) cl = gonly;
    SubmitOptions o;
    o.flops = 1e6 * static_cast<double>(1 + rng.next_in(0, 50));
    o.user_priority = static_cast<std::int64_t>(rng.next_in(0, 5));
    (void)g.submit(cl, std::span<const Access>(acc), std::move(o));
  }
  return g;
}

using Param = std::tuple<std::string, std::uint64_t>;

class AllSchedulers : public ::testing::TestWithParam<Param> {};

TEST_P(AllSchedulers, CompletesRandomDagOnHeterogeneousNode) {
  const auto& [name, seed] = GetParam();
  const TaskGraph g = random_graph(seed, 120, /*with_gpu_only=*/true);
  Platform p = test::small_platform(3, 2);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  SimEngine engine(g, p, db);
  const SimResult r = engine.run(scheduler_factory(name));
  EXPECT_EQ(r.tasks_executed, g.num_tasks());
  EXPECT_GT(r.makespan, 0.0);
  EXPECT_EQ(engine.trace().num_executed(), g.num_tasks());
}

TEST_P(AllSchedulers, CompletesOnCpuOnlyNode) {
  const auto& [name, seed] = GetParam();
  const TaskGraph g = random_graph(seed + 100, 80, /*with_gpu_only=*/false);
  Platform p = test::small_platform(4, 0);
  PerfDatabase db = test::flat_perf();
  const SimResult r = simulate(g, p, db, scheduler_factory(name));
  EXPECT_EQ(r.tasks_executed, g.num_tasks());
}

TEST_P(AllSchedulers, CompletesWithNoise) {
  const auto& [name, seed] = GetParam();
  const TaskGraph g = random_graph(seed + 200, 100, true);
  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  SimConfig cfg;
  cfg.noise_sigma = 0.2;
  cfg.seed = seed;
  const SimResult r = simulate(g, p, db, scheduler_factory(name), cfg);
  EXPECT_EQ(r.tasks_executed, g.num_tasks());
}

TEST_P(AllSchedulers, CompletesUncalibrated) {
  const auto& [name, seed] = GetParam();
  const TaskGraph g = random_graph(seed + 300, 60, true);
  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  SimConfig cfg;
  cfg.calibrated = false;  // schedulers must cope with prior-based δ
  const SimResult r = simulate(g, p, db, scheduler_factory(name), cfg);
  EXPECT_EQ(r.tasks_executed, g.num_tasks());
}

TEST_P(AllSchedulers, DeterministicAcrossRuns) {
  const auto& [name, seed] = GetParam();
  if (name == "random") GTEST_SKIP() << "random policy reseeds per engine run";
  const TaskGraph g = random_graph(seed + 400, 90, true);
  Platform p = test::small_platform(3, 1);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  const SimResult a = simulate(g, p, db, scheduler_factory(name));
  const SimResult b = simulate(g, p, db, scheduler_factory(name));
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
}

INSTANTIATE_TEST_SUITE_P(
    PolicySeeds, AllSchedulers,
    ::testing::Combine(::testing::Values("eager", "random", "lws", "dm", "dmda",
                                         "dmdas", "heteroprio", "multiprio",
                                         "multiprio-noevict", "multiprio-nolocality",
                                         "multiprio-nonod", "multiprio-rawbrw"),
                       ::testing::Values(1u, 2u, 3u)),
    [](const ::testing::TestParamInfo<Param>& info) {
      std::string n = std::get<0>(info.param);
      for (char& c : n)
        if (c == '-') c = '_';
      return n + "_s" + std::to_string(std::get<1>(info.param));
    });

TEST(SchedulerRegistry, KnowsAllNames) {
  const TaskGraph g = random_graph(1, 10, true);
  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf();
  for (const std::string& name : scheduler_names()) {
    const SimResult r = simulate(g, p, db, scheduler_factory(name));
    EXPECT_EQ(r.tasks_executed, g.num_tasks()) << name;
  }
}

TEST(SchedulerRegistryDeath, UnknownNameAborts) {
  const TaskGraph g = random_graph(1, 5, false);
  Platform p = test::small_platform(1, 0);
  PerfDatabase db = test::flat_perf();
  EXPECT_DEATH((void)simulate(g, p, db, scheduler_factory("nope")), "unknown scheduler");
}

TEST(Eager, ServesHighestUserPriorityFirst) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::CPU});
  const DataId d0 = g.add_data(8);
  const DataId d1 = g.add_data(8);
  SubmitOptions lo;
  lo.user_priority = 1;
  SubmitOptions hi;
  hi.user_priority = 5;
  const TaskId tlo = g.submit(cl, {Access{d0, AccessMode::ReadWrite}}, lo);
  const TaskId thi = g.submit(cl, {Access{d1, AccessMode::ReadWrite}}, hi);
  Platform p = test::small_platform(1, 0);
  test::ManualContext mc(g, p, test::flat_perf());
  auto s = make_eager(mc.ctx());
  s->push(tlo);
  s->push(thi);
  EXPECT_EQ(s->pop(WorkerId{std::size_t{0}}), std::optional<TaskId>(thi));
  EXPECT_EQ(s->pop(WorkerId{std::size_t{0}}), std::optional<TaskId>(tlo));
}

TEST(Eager, SkipsTasksWorkerCannotRun) {
  TaskGraph g;
  const CodeletId gonly = g.add_codelet("g", {ArchType::GPU});
  const CodeletId conly = g.add_codelet("c", {ArchType::CPU});
  const DataId d0 = g.add_data(8);
  const DataId d1 = g.add_data(8);
  const TaskId tg = g.submit(gonly, {Access{d0, AccessMode::ReadWrite}});
  const TaskId tc = g.submit(conly, {Access{d1, AccessMode::ReadWrite}});
  Platform p = test::small_platform(1, 1);
  test::ManualContext mc(g, p, test::flat_perf());
  auto s = make_eager(mc.ctx());
  s->push(tg);
  s->push(tc);
  // CPU worker (id 0) must skip the GPU-only head of the queue.
  EXPECT_EQ(s->pop(p.workers_of_node(p.ram_node())[0]), std::optional<TaskId>(tc));
}

TEST(DmFamily, MapsToFasterArchWhenFree) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::CPU, ArchType::GPU});
  const DataId d = g.add_data(8);
  SubmitOptions o;
  o.flops = 1e9;
  const TaskId t = g.submit(cl, {Access{d, AccessMode::ReadWrite}}, o);
  Platform p = test::small_platform(2, 1);
  test::ManualContext mc(g, p, test::flat_perf(10.0, 100.0));
  mc.history.seed_from_truth();
  auto s = make_dm_family(mc.ctx(), DmVariant::Dm);
  s->push(t);
  const WorkerId gpu_w = p.workers_of_node(MemNodeId{std::size_t{1}})[0];
  EXPECT_TRUE(s->pop(gpu_w).has_value());
}

TEST(DmFamily, LoadBalancesAcrossEqualWorkers) {
  // 4 equal CPU tasks on 2 CPU workers: dm's expected-end ledger must
  // spread them 2/2.
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::CPU});
  SubmitOptions o;
  o.flops = 1e9;
  std::vector<TaskId> ts;
  for (int i = 0; i < 4; ++i) {
    const DataId d = g.add_data(8);
    ts.push_back(g.submit(cl, {Access{d, AccessMode::ReadWrite}}, o));
  }
  Platform p = test::small_platform(2, 0);
  test::ManualContext mc(g, p, test::flat_perf());
  mc.history.seed_from_truth();
  auto s = make_dm_family(mc.ctx(), DmVariant::Dm);
  for (TaskId t : ts) s->push(t);
  int w0 = 0;
  int w1 = 0;
  for (int i = 0; i < 2; ++i) {
    if (s->pop(WorkerId{std::size_t{0}})) ++w0;
    if (s->pop(WorkerId{std::size_t{1}})) ++w1;
  }
  EXPECT_EQ(w0, 2);
  EXPECT_EQ(w1, 2);
}

TEST(HeteroPrio, CpuAndGpuScanBucketsInOppositeOrder) {
  TaskGraph g;
  const CodeletId fast_gpu = g.add_codelet("fastgpu", {ArchType::CPU, ArchType::GPU});
  const CodeletId cpu_ish = g.add_codelet("cpuish", {ArchType::CPU, ArchType::GPU});
  const DataId d0 = g.add_data(16);
  const DataId d1 = g.add_data(16);
  SubmitOptions o;
  o.flops = 1e8;
  const TaskId tg = g.submit(fast_gpu, {Access{d0, AccessMode::ReadWrite}}, o);
  const TaskId tc = g.submit(cpu_ish, {Access{d1, AccessMode::ReadWrite}}, o);
  Platform p = test::small_platform(1, 1);
  test::ManualContext mc(g, p, test::flat_perf());
  // fastgpu: 50× GPU speedup; cpuish: CPU-favoured.
  mc.history.record(tg, ArchType::CPU, 50e-3);
  mc.history.record(tg, ArchType::GPU, 1e-3);
  mc.history.record(tc, ArchType::CPU, 0.9e-3);
  mc.history.record(tc, ArchType::GPU, 1e-3);
  auto s = make_heteroprio(mc.ctx());
  s->push(tg);
  s->push(tc);
  const WorkerId cpu_w = p.workers_of_node(p.ram_node())[0];
  const WorkerId gpu_w = p.workers_of_node(MemNodeId{std::size_t{1}})[0];
  EXPECT_EQ(s->pop(gpu_w), std::optional<TaskId>(tg));  // GPU takes high speedup
  EXPECT_EQ(s->pop(cpu_w), std::optional<TaskId>(tc));  // CPU takes low speedup
}

TEST(Lws, LocalPopIsLifoStealIsFifo) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet("k", {ArchType::CPU});
  std::vector<TaskId> ts;
  for (int i = 0; i < 3; ++i) {
    const DataId d = g.add_data(8);
    ts.push_back(g.submit(cl, {Access{d, AccessMode::ReadWrite}}));
  }
  Platform p = test::small_platform(2, 0);
  test::ManualContext mc(g, p, test::flat_perf());
  auto s = make_lws(mc.ctx());
  // All pushes land on worker 0's deque (no completions yet).
  for (TaskId t : ts) s->push(t);
  const WorkerId w0{std::size_t{0}};
  const WorkerId w1{std::size_t{1}};
  EXPECT_EQ(s->pop(w0), std::optional<TaskId>(ts[2]));  // LIFO local
  EXPECT_EQ(s->pop(w1), std::optional<TaskId>(ts[0]));  // FIFO steal
}

}  // namespace
}  // namespace mp
