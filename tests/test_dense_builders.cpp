// Dense DAG builders: task counts, dependency shape, expert priorities, and
// full numerical validation of the tiled algorithms executed for real
// through the threaded executor under several schedulers.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "apps/dense/dense_builders.hpp"
#include "apps/dense/reference.hpp"
#include "apps/fmm/dag_builder.hpp"
#include "apps/fmm/particles.hpp"
#include "apps/sparseqr/dag_builder.hpp"
#include "apps/sparseqr/generators.hpp"
#include "exec/thread_executor.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

namespace mp::dense {
namespace {

std::size_t count_codelet(const TaskGraph& g, const std::string& name) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < g.num_tasks(); ++i)
    if (g.codelet_of(TaskId{i}).name == name) ++n;
  return n;
}

TEST(PotrfBuilder, TaskCountsMatchFormula) {
  const std::size_t T = 6;
  TaskGraph g;
  TileMatrix a(T, 8, /*allocate=*/false);
  a.register_handles(g);
  build_potrf(g, a, false);
  EXPECT_EQ(count_codelet(g, "potrf"), T);
  EXPECT_EQ(count_codelet(g, "trsm"), T * (T - 1) / 2);
  EXPECT_EQ(count_codelet(g, "syrk"), T * (T - 1) / 2);
  EXPECT_EQ(count_codelet(g, "gemm"), T * (T - 1) * (T - 2) / 6);
  g.self_check();
}

TEST(GetrfBuilder, TaskCountsMatchFormula) {
  const std::size_t T = 5;
  TaskGraph g;
  TileMatrix a(T, 8, false);
  a.register_handles(g);
  build_getrf(g, a, false);
  EXPECT_EQ(count_codelet(g, "getrf"), T);
  EXPECT_EQ(count_codelet(g, "trsm"), T * (T - 1));
  // Σ_{k} (T-1-k)² = (T-1)T(2T-1)/6
  EXPECT_EQ(count_codelet(g, "gemm"), (T - 1) * T * (2 * T - 1) / 6);
}

TEST(GeqrfBuilder, TaskCountsMatchFormula) {
  const std::size_t T = 5;
  TaskGraph g;
  TileMatrix a(T, 8, false);
  a.register_handles(g);
  auto aux = build_geqrf(g, a, false);
  EXPECT_EQ(count_codelet(g, "geqrt"), T);
  EXPECT_EQ(count_codelet(g, "ormqr"), T * (T - 1) / 2);
  EXPECT_EQ(count_codelet(g, "tsqrt"), T * (T - 1) / 2);
  EXPECT_EQ(count_codelet(g, "tsmqr"), (T - 1) * T * (2 * T - 1) / 6);
}

TEST(PotrfBuilder, FirstPotrfIsOnlyRoot) {
  TaskGraph g;
  TileMatrix a(4, 8, false);
  a.register_handles(g);
  build_potrf(g, a, false);
  const auto ready = g.initial_ready();
  // potrf(0) plus nothing else on the critical handle... in fact every task
  // touching A(i,j) for the first time with RW has no predecessor except
  // through earlier tasks; the true roots are potrf(0) and first-touch
  // trsm/syrk/gemm... verify potrf(0) is a root and is task 0.
  EXPECT_FALSE(ready.empty());
  EXPECT_EQ(ready.front().index(), 0u);
}

TEST(PotrfBuilder, ExpertPrioritiesDecreaseAlongCriticalPath) {
  TaskGraph g;
  TileMatrix a(5, 8, false);
  a.register_handles(g);
  build_potrf(g, a, true);
  // potrf(0) sits at the head of the critical path: maximal priority.
  std::int64_t max_prio = 0;
  for (std::size_t i = 0; i < g.num_tasks(); ++i)
    max_prio = std::max(max_prio, g.task(TaskId{i}).user_priority);
  EXPECT_EQ(g.task(TaskId{std::size_t{0}}).user_priority, max_prio);
  // Sinks have the lowest (their own flops only).
  bool some_lower = false;
  for (std::size_t i = 0; i < g.num_tasks(); ++i)
    some_lower = some_lower || g.task(TaskId{i}).user_priority < max_prio;
  EXPECT_TRUE(some_lower);
}

TEST(Builders, SimulationRunsAllSchedulers) {
  TaskGraph g;
  TileMatrix a(6, 64, false);
  a.register_handles(g);
  build_potrf(g, a, true);
  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf(10.0, 100.0);
  for (const char* name : {"multiprio", "dmdas", "heteroprio", "lws"}) {
    const SimResult r = simulate(g, p, db, scheduler_factory(name));
    EXPECT_EQ(r.tasks_executed, g.num_tasks()) << name;
  }
}

// Every builder (dense, FMM, sparse QR) gives each task of its DAG its own
// label (codelet name and iparams), so a trace names each task once.
std::size_t distinct_labels(const TaskGraph& g) {
  std::set<std::string> labels;
  for (std::size_t i = 0; i < g.num_tasks(); ++i) labels.insert(g.label(TaskId{i}));
  return labels.size();
}

TEST(Builders, LabelsAreUniqueWithinEachDag) {
  using Build = void (*)(TaskGraph&, TileMatrix&);
  const std::pair<const char*, Build> dense[] = {
      {"potrf", [](TaskGraph& g, TileMatrix& a) { build_potrf(g, a, false); }},
      {"getrf", [](TaskGraph& g, TileMatrix& a) { build_getrf(g, a, false); }},
      {"geqrf", [](TaskGraph& g, TileMatrix& a) { (void)build_geqrf(g, a, false); }},
  };
  for (const auto& [name, build] : dense) {
    TaskGraph g;
    TileMatrix a(4, 8, /*allocate=*/false);
    a.register_handles(g);
    build(g, a);
    EXPECT_EQ(distinct_labels(g), g.num_tasks()) << name;
  }
  {
    fmm::Octree tree(fmm::uniform_cube(3000, 8), {4, 8, false});
    TaskGraph g;
    (void)fmm::build_fmm(g, tree);
    EXPECT_EQ(distinct_labels(g), g.num_tasks()) << "fmm";
  }
  {
    const sqr::MatrixSpec spec{"t", 300, 200, 800, 0.0, 10.0, 0.01};
    const sqr::SymbolicAnalysis sym = sqr::analyze(sqr::generate(spec, 13), {16});
    TaskGraph g;
    (void)sqr::build_sparseqr(g, sym, {16});
    EXPECT_EQ(distinct_labels(g), g.num_tasks()) << "sparseqr";
  }
}

// The in-place tile fills against the same fills done on a full n×n copy.
TEST(TileMatrix, InPlaceFillsMatchFullCopy) {
  struct Case {
    std::size_t tiles;
    std::size_t nb;
    std::uint64_t seed;
  };
  for (const Case c : {Case{1, 5, 1}, Case{3, 4, 7}, Case{4, 16, 1234}, Case{2, 33, 99}}) {
    TileMatrix want_spd(c.tiles, c.nb, true);
    TileMatrix want_dd(c.tiles, c.nb, true);
    want_spd.fill_random(c.seed);
    want_dd.fill_random(c.seed);
    const std::size_t n = want_spd.n();
    std::vector<double> spd = want_spd.to_full();
    std::vector<double> dd = want_dd.to_full();
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t i = 0; i < j; ++i) {
        const double s = 0.5 * (spd[j * n + i] + spd[i * n + j]);
        spd[j * n + i] = s;
        spd[i * n + j] = s;
      }
      spd[j * n + j] += static_cast<double>(n);
      dd[j * n + j] += static_cast<double>(n);
    }
    want_spd.from_full(spd);
    want_dd.from_full(dd);

    TileMatrix got_spd(c.tiles, c.nb, true);
    TileMatrix got_dd(c.tiles, c.nb, true);
    got_spd.fill_spd(c.seed);
    got_dd.fill_diag_dominant(c.seed);
    const std::size_t bytes = n * n * sizeof(double);
    EXPECT_EQ(std::memcmp(got_spd.tile(0, 0), want_spd.tile(0, 0), bytes), 0)
        << "fill_spd tiles " << c.tiles << " nb " << c.nb;
    EXPECT_EQ(std::memcmp(got_dd.tile(0, 0), want_dd.tile(0, 0), bytes), 0)
        << "fill_diag_dominant tiles " << c.tiles << " nb " << c.nb;
  }
}

// --- real execution: tiled result must match the full-matrix reference ----

struct RealRun : public ::testing::TestWithParam<std::string> {};

TEST_P(RealRun, PotrfMatchesReference) {
  const std::size_t T = 4;
  const std::size_t nb = 12;
  TaskGraph g;
  TileMatrix a(T, nb, true);
  a.fill_spd(1234);
  const std::vector<double> orig = a.to_full();
  a.register_handles(g);
  build_potrf(g, a, true);

  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  const ExecResult r = exec.run(scheduler_factory(GetParam()));
  EXPECT_EQ(r.tasks_executed, g.num_tasks());

  const std::size_t n = a.n();
  std::vector<double> expect = orig;
  ref::cholesky(expect, n);
  const std::vector<double> got = a.to_full();
  double err = 0.0;
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = j; i < n; ++i)
      err = std::max(err, std::abs(got[j * n + i] - expect[j * n + i]));
  EXPECT_LT(err, 1e-9);
}

TEST_P(RealRun, GetrfMatchesReference) {
  const std::size_t T = 4;
  const std::size_t nb = 10;
  TaskGraph g;
  TileMatrix a(T, nb, true);
  a.fill_diag_dominant(99);
  const std::vector<double> orig = a.to_full();
  a.register_handles(g);
  build_getrf(g, a, true);

  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  (void)exec.run(scheduler_factory(GetParam()));

  const std::size_t n = a.n();
  std::vector<double> expect = orig;
  ref::lu_nopiv(expect, n);
  const std::vector<double> got = a.to_full();
  EXPECT_LT(ref::fro_diff(got, expect) / ref::fro_norm(expect), 1e-10);
}

TEST_P(RealRun, GeqrfPreservesGram) {
  const std::size_t T = 3;
  const std::size_t nb = 10;
  TaskGraph g;
  TileMatrix a(T, nb, true);
  a.fill_random(321);
  const std::vector<double> orig = a.to_full();
  a.register_handles(g);
  auto aux = build_geqrf(g, a, true);

  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf();
  ThreadExecutor exec(g, p, db);
  (void)exec.run(scheduler_factory(GetParam()));

  // QᵀQ = I ⇒ RᵀR = AᵀA with R the upper triangle of the result.
  const std::size_t n = a.n();
  const std::vector<double> got = a.to_full();
  const auto r = ref::upper(got, n);
  const auto rtr = ref::matmul_tn(r, r, n);
  const auto ata = ref::matmul_tn(orig, orig, n);
  EXPECT_LT(ref::fro_diff(rtr, ata) / ref::fro_norm(ata), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Policies, RealRun,
                         ::testing::Values("multiprio", "dmdas", "heteroprio", "eager",
                                           "lws"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string n = info.param;
                           for (char& c : n)
                             if (c == '-') c = '_';
                           return n;
                         });

}  // namespace
}  // namespace mp::dense
