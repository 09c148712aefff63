// Run-analysis tests: critical-path and area lower bounds against
// hand-computed optima, idle-blame decomposition (buckets partition the idle
// exactly; eviction storms and fail-stop drains land in the right bucket),
// the δ(t,a) model audit, the same report on a real ThreadExecutor run, and
// byte-for-byte determinism of the reports.
#include <gtest/gtest.h>

#include "apps/dense/dense_builders.hpp"
#include "apps/dense/tile_matrix.hpp"
#include "exec/thread_executor.hpp"
#include "obs/analysis.hpp"
#include "obs/bench_json.hpp"
#include "obs/compare.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

namespace mp {
namespace {

/// One simulated run with everything the analysis consumes kept alive.
struct AnalyzedRun {
  test::EdgeGraph eg;
  Platform platform;
  PerfDatabase perf;
  RecordingObserver obs;
  std::unique_ptr<SimEngine> engine;
  SimResult result;

  AnalyzedRun(test::EdgeGraph graph_in, Platform p, PerfDatabase db,
              const std::string& sched = "multiprio", SimConfig cfg = {},
              std::size_t event_capacity = EventLog::kDefaultCapacity)
      : eg(std::move(graph_in)), platform(std::move(p)), perf(std::move(db)),
        obs(event_capacity) {
    cfg.observer = &obs;
    engine = std::make_unique<SimEngine>(eg.graph, platform, perf, cfg);
    result = engine->run(scheduler_factory(sched));
  }

  [[nodiscard]] RunAnalysis analyze() const {
    return RunAnalysis(engine->trace(), eg.graph, platform, perf, &obs,
                       engine->predicted_durations());
  }
};

// A diamond 0 → {1, 2} → 3, every task 1e8 flops, dual-arch.
test::EdgeGraph diamond(double flops = 1e8) {
  return test::EdgeGraph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}, flops);
}

// --- lower bounds -------------------------------------------------------------

TEST(RunAnalysisBounds, DiamondMatchesHandComputedOptima) {
  // 2 CPUs at 10 GFlop/s (0.01 s/task) + 1 GPU at 100 GFlop/s (0.001 s/task).
  AnalyzedRun run(diamond(), test::small_platform(2, 1), test::flat_perf(10.0, 100.0));
  const RunAnalysis a = run.analyze();

  // Critical path 0 → 1 → 3: three tasks at the best-arch (GPU) time.
  EXPECT_NEAR(a.cp_bound_s(), 3e-3, 1e-12);

  // Area bound: 4 divisible tasks, d_cpu = 0.01, d_gpu = 0.001. At the
  // optimum both pools run flat out: g·0.001 = T on the GPU and
  // (4−g)·0.01 = 2T on the CPUs ⇒ g = 10/3, T = 1/300 s.
  EXPECT_NEAR(a.area_bound_s(), 1.0 / 300.0, 1e-9);

  // The binding bound is the larger one, and no schedule can beat it.
  EXPECT_DOUBLE_EQ(a.bound_s(), std::max(a.area_bound_s(), a.cp_bound_s()));
  EXPECT_GE(run.result.makespan, a.bound_s() - 1e-12);
  EXPECT_GT(a.efficiency(), 0.0);
  EXPECT_LE(a.efficiency(), 1.0 + 1e-12);
  EXPECT_LE(a.area_efficiency(), a.efficiency() + 1e-12);
}

TEST(RunAnalysisBounds, ChainIsCriticalPathBoundExactlyAndOptimal) {
  // A pure chain serializes completely: the executed makespan equals the
  // critical-path bound, so efficiency is exactly 1.
  test::EdgeGraph chain(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, 1e8);
  AnalyzedRun run(std::move(chain), test::small_platform(2, 1),
                  test::flat_perf(10.0, 100.0));
  const RunAnalysis a = run.analyze();
  EXPECT_NEAR(a.cp_bound_s(), 5e-3, 1e-12);
  // The executed makespan exceeds the bound only by the (µs-scale) transfer
  // latencies between the chained tasks, which the bound ignores.
  EXPECT_GE(run.result.makespan, a.cp_bound_s() - 1e-12);
  EXPECT_GT(a.efficiency(), 0.99);
  EXPECT_LE(a.efficiency(), 1.0 + 1e-12);
  // The executed critical path covers every task of the chain, and its exec
  // seconds are exactly the bound (same tasks, same arch).
  EXPECT_EQ(a.critical_path().size(), 5u);
  EXPECT_NEAR(a.critical_path_exec_s(), a.cp_bound_s(), 1e-12);
}

TEST(RunAnalysisBounds, SingleArchPoolFallsBackToMeanLoad) {
  // CPU-only platform: the area bound degenerates to total work / workers.
  test::EdgeGraph g(6, {}, 1e8, {ArchType::CPU});
  AnalyzedRun run(std::move(g), test::small_platform(3, 0), test::flat_perf(10.0, 100.0),
                  "eager");
  const RunAnalysis a = run.analyze();
  EXPECT_NEAR(a.area_bound_s(), 6 * 0.01 / 3.0, 1e-12);
}

// --- idle blame ----------------------------------------------------------------

TEST(RunAnalysisBlame, BucketsPartitionTotalIdleExactly) {
  AnalyzedRun run(test::EdgeGraph(40, {{0, 20}, {1, 21}}, 1e8),
                  test::small_platform(2, 1), test::flat_perf(1.0, 100.0));
  const RunAnalysis a = run.analyze();

  double worker_sum = 0.0;
  for (const WorkerIdleBlame& b : a.idle_blame()) {
    const double cause_sum = b.by_cause[0] + b.by_cause[1] + b.by_cause[2] + b.by_cause[3];
    EXPECT_NEAR(cause_sum, b.total_idle_s, 1e-9) << b.name;
    worker_sum += b.total_idle_s;
  }
  EXPECT_NEAR(worker_sum, a.total_idle_s(), 1e-9);
  double cause_totals = 0.0;
  for (std::size_t c = 0; c < kNumIdleCauses; ++c)
    cause_totals += a.idle_cause_total(static_cast<IdleCause>(c));
  EXPECT_NEAR(cause_totals, a.total_idle_s(), 1e-9);
}

TEST(RunAnalysisBlame, EvictionStormLandsInEvictionBucket) {
  // 200 identical dual tasks, GPU 10× faster: the CPUs are fed while the GPU
  // heap holds more best-affinity work than δ(t, CPU), then MultiPrio's
  // pop_condition turns them away over and over for the whole tail of the
  // run (the Fig. 4 situation). Those turned-away seconds must be blamed on
  // eviction, not starvation.
  AnalyzedRun run(test::EdgeGraph(200, {}, 1e8), test::small_platform(2, 1),
                  test::flat_perf(10.0, 100.0));
  ASSERT_GT(run.obs.events().count(SchedEventKind::PopReject), 0u);
  const RunAnalysis a = run.analyze();
  const double eviction = a.idle_cause_total(IdleCause::Eviction);
  EXPECT_GT(eviction, 0.0);
  // The storm dominates what the CPUs did with their idle time.
  double cpu_idle = 0.0, cpu_eviction = 0.0;
  for (const WorkerIdleBlame& b : a.idle_blame()) {
    if (run.platform.worker(b.worker).arch != ArchType::CPU) continue;
    cpu_idle += b.total_idle_s;
    cpu_eviction += b.by_cause[static_cast<std::size_t>(IdleCause::Eviction)];
  }
  EXPECT_GT(cpu_eviction, 0.5 * cpu_idle);
}

TEST(RunAnalysisBlame, LostWorkerIdleIsDrainAfterTheLoss) {
  SimConfig cfg;
  cfg.fault.worker_losses.push_back(WorkerLossSpec{WorkerId{std::size_t{0}}, 0.0});
  AnalyzedRun run(test::EdgeGraph(12, {}, 1e8), test::small_platform(2, 1),
                  test::flat_perf(10.0, 100.0), "eager", cfg);
  ASSERT_EQ(run.result.fault.workers_lost, 1u);
  const RunAnalysis a = run.analyze();
  const WorkerIdleBlame& dead = a.idle_blame()[0];
  // Lost at t=0: the whole makespan is idle, all of it drain.
  EXPECT_NEAR(dead.total_idle_s, run.result.makespan, 1e-12);
  EXPECT_NEAR(dead.by_cause[static_cast<std::size_t>(IdleCause::Drain)],
              dead.total_idle_s, 1e-9);
}

// --- node table -----------------------------------------------------------------

TEST(RunAnalysisTables, NodeWhoseWorkersRanNothingKeepsItsRow) {
  // The only GPU is lost at t=0: its node executed nothing, and is listed
  // anyway, fully idle.
  SimConfig cfg;
  cfg.fault.worker_losses.push_back(WorkerLossSpec{WorkerId{std::size_t{2}}, 0.0});
  AnalyzedRun run(test::EdgeGraph(12, {}, 1e8), test::small_platform(2, 1),
                  test::flat_perf(10.0, 100.0), "eager", cfg);
  ASSERT_EQ(run.result.fault.workers_lost, 1u);
  const RunAnalysis a = run.analyze();
  ASSERT_EQ(a.nodes().size(), run.platform.num_nodes());
  const NodeReport& gpu = a.nodes()[1];
  EXPECT_EQ(gpu.node, run.platform.worker(WorkerId{std::size_t{2}}).node);
  EXPECT_EQ(gpu.tasks, 0u);
  EXPECT_DOUBLE_EQ(gpu.busy_s, 0.0);
  EXPECT_DOUBLE_EQ(gpu.idle_fraction, 1.0);
  EXPECT_EQ(a.nodes()[0].tasks, 12u);
}

// --- model audit ----------------------------------------------------------------

TEST(RunAnalysisModel, CalibratedNoiseFreeRunHasZeroError) {
  AnalyzedRun run(diamond(), test::small_platform(2, 1), test::flat_perf(10.0, 100.0));
  const RunAnalysis a = run.analyze();
  ASSERT_FALSE(a.model_accuracy().empty());
  std::size_t samples = 0;
  for (const ModelAccuracy& m : a.model_accuracy()) {
    EXPECT_EQ(m.codelet, "work");
    EXPECT_NEAR(m.mean_abs_err_s, 0.0, 1e-12);
    EXPECT_NEAR(m.bias_s, 0.0, 1e-12);
    samples += m.samples;
  }
  EXPECT_EQ(samples, run.result.tasks_executed);
  EXPECT_NEAR(a.model_mean_abs_err_s(), 0.0, 1e-12);
}

TEST(RunAnalysisModel, ExecutionNoiseShowsUpAsError) {
  SimConfig cfg;
  cfg.noise_sigma = 0.5;
  AnalyzedRun run(test::EdgeGraph(20, {}, 1e8), test::small_platform(2, 1),
                  test::flat_perf(10.0, 100.0), "multiprio", cfg);
  const RunAnalysis a = run.analyze();
  EXPECT_GT(a.model_mean_abs_err_s(), 0.0);
}

TEST(RunAnalysisModel, NoPredictionsMeansNoAudit) {
  AnalyzedRun run(diamond(), test::small_platform(2, 1), test::flat_perf(10.0, 100.0));
  const RunAnalysis a(run.engine->trace(), run.eg.graph, run.platform, run.perf,
                      &run.obs, {});
  EXPECT_TRUE(a.model_accuracy().empty());
  EXPECT_EQ(a.model_mean_abs_err_s(), 0.0);
}

// --- a real run ----------------------------------------------------------------------

/// A 4×4-tile Cholesky of 32×32 tiles, factored for real by the
/// ThreadExecutor under MultiPrio on 3 CPU workers and 1 GPU worker.
struct RealPotrf {
  dense::TileMatrix a{4, 32, /*allocate=*/true};
  TaskGraph graph;
  Platform platform = test::small_platform(3, 1);
  PerfDatabase perf = test::flat_perf();
  std::unique_ptr<ThreadExecutor> exec;
  ExecResult result;

  explicit RealPotrf(RecordingObserver* obs) {
    a.fill_spd(5);
    a.register_handles(graph);
    dense::build_potrf(graph, a, /*expert_priorities=*/true);
    exec = std::make_unique<ThreadExecutor>(graph, platform, perf);
    ExecConfig cfg;
    cfg.observer = obs;
    result = exec->run(scheduler_factory("multiprio"), cfg);
  }
};

TEST(RunAnalysisExec, RealRunHasOneSegmentPerTaskAndAFullReport) {
  RecordingObserver obs;
  RealPotrf run(&obs);
  const Trace& trace = run.exec->trace();
  ASSERT_EQ(trace.num_executed(), run.graph.num_tasks());
  EXPECT_EQ(run.result.tasks_executed, run.graph.num_tasks());

  const RunAnalysis a(trace, run.graph, run.platform, run.perf, &obs,
                      run.exec->predicted_durations());
  EXPECT_GT(a.bound_s(), 0.0);
  EXPECT_DOUBLE_EQ(a.makespan_s(), trace.makespan());
  double idle = 0.0;
  for (const WorkerIdleBlame& b : a.idle_blame()) {
    EXPECT_NEAR(b.by_cause[0] + b.by_cause[1] + b.by_cause[2] + b.by_cause[3],
                b.total_idle_s, 1e-9)
        << b.name;
    idle += b.total_idle_s;
  }
  EXPECT_NEAR(idle, a.total_idle_s(), 1e-9);
  // Every executed task was audited against its pop-time prediction.
  std::size_t samples = 0;
  for (const ModelAccuracy& m : a.model_accuracy()) samples += m.samples;
  EXPECT_EQ(samples, run.graph.num_tasks());
}

TEST(RunAnalysisExec, WithoutObserverPredictionsAreZeroAndTheAuditIsEmpty) {
  RealPotrf run(nullptr);
  ASSERT_EQ(run.exec->predicted_durations().size(), run.graph.num_tasks());
  for (const double p : run.exec->predicted_durations()) EXPECT_EQ(p, 0.0);
  const RunAnalysis a(run.exec->trace(), run.graph, run.platform, run.perf, nullptr,
                      run.exec->predicted_durations());
  EXPECT_TRUE(a.model_accuracy().empty());
  EXPECT_GT(a.bound_s(), 0.0);
}

TEST(RunAnalysisExec, ChromeExportHasOneSlicePerExecutedTask) {
  RecordingObserver obs;
  RealPotrf run(&obs);
  const std::string json =
      chrome_trace_json(run.exec->trace(), run.graph, run.platform, &obs);
  std::size_t slices = 0;
  for (std::size_t pos = json.find(R"("ph":"X")"); pos != std::string::npos;
       pos = json.find(R"("ph":"X")", pos + 1))
    ++slices;
  EXPECT_EQ(slices, run.graph.num_tasks());
}

// --- truncation ------------------------------------------------------------------

TEST(RunAnalysis, TruncatedEventLogIsFlaggedAndWarned) {
  AnalyzedRun run(test::EdgeGraph(40, {{0, 20}, {1, 21}}, 1e8),
                  test::small_platform(2, 1), test::flat_perf(1.0, 100.0), "multiprio",
                  {}, /*event_capacity=*/8);
  ASSERT_GT(run.obs.events().dropped(), 0u);
  const RunAnalysis a = run.analyze();
  EXPECT_TRUE(a.events_truncated());
  EXPECT_NE(a.to_string().find("WARNING"), std::string::npos);
  // Truncation loses attribution detail, never the arithmetic partition.
  for (const WorkerIdleBlame& b : a.idle_blame())
    EXPECT_NEAR(b.by_cause[0] + b.by_cause[1] + b.by_cause[2] + b.by_cause[3],
                b.total_idle_s, 1e-9);
}

// --- determinism -------------------------------------------------------------------

TEST(RunAnalysis, ReportsAreByteForByteDeterministic) {
  // Each analysis outlives the run it was built from: the engine, trace,
  // graph and observer are destroyed before the reports are rendered.
  const auto analyze = [](const std::string& sched) {
    const AnalyzedRun run(test::EdgeGraph(40, {{0, 20}, {1, 21}}, 1e8),
                          test::small_platform(2, 1), test::flat_perf(1.0, 100.0), sched);
    return run.analyze();
  };
  const auto once = [&] {
    const RunAnalysis aa = analyze("multiprio");
    const RunAnalysis ab = analyze("dmdas");
    return aa.to_string() + compare_runs("multiprio", aa, "dmdas", ab);
  };
  EXPECT_EQ(once(), once());
}

// --- bench JSON ----------------------------------------------------------------------

TEST(BenchJson, FixedSchemaEscapedAndDeterministic) {
  EventLog log(4);
  SchedEvent e;
  e.kind = SchedEventKind::Push;
  log.append(e);
  const BenchRecord rec = BenchRecord("fig5_dense", "multi\"prio")
                              .param("kernel", "getrf")
                              .param("n", std::size_t{20480})
                              .param("sigma", 0.125)
                              .makespan_s(1.5)
                              .efficiency(0.875)
                              .extra("gflops", 42.0)
                              .events_from(log);
  const std::string json = rec.to_json();
  EXPECT_EQ(json, rec.to_json());
  EXPECT_NE(json.find("\"bench\":\"fig5_dense\""), std::string::npos);
  EXPECT_NE(json.find("\"scheduler\":\"multi\\\"prio\""), std::string::npos);
  EXPECT_NE(json.find("\"params\":{\"kernel\":\"getrf\",\"n\":20480,\"sigma\":0.125}"),
            std::string::npos);
  EXPECT_NE(json.find("\"makespan_s\":1.5"), std::string::npos);
  EXPECT_NE(json.find("\"efficiency\":0.875"), std::string::npos);
  EXPECT_NE(json.find("\"gflops\":42"), std::string::npos);
  EXPECT_NE(json.find("\"PUSH\":1"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);

  const std::string arr = bench_records_json({rec, rec});
  EXPECT_EQ(arr.front(), '[');
  EXPECT_EQ(count(arr.begin(), arr.end(), '\n'), 4);  // [, two records, ]
}

// --- EventLog CSV footer ---------------------------------------------------------------

TEST(EventLogCsv, FooterCarriesDropProofTotals) {
  EventLog log(2);
  for (std::size_t i = 0; i < 5; ++i) {
    SchedEvent e;
    e.kind = i % 2 == 0 ? SchedEventKind::Push : SchedEventKind::Pop;
    log.append(e);
  }
  const std::string csv = log.to_csv();
  EXPECT_NE(csv.find("# recorded=5 retained=2 dropped=3"), std::string::npos);
  EXPECT_NE(csv.find("# totals:"), std::string::npos);
  EXPECT_NE(csv.find("PUSH=3"), std::string::npos);
  EXPECT_NE(csv.find("POP=2"), std::string::npos);
}

}  // namespace
}  // namespace mp
