// Observability tests: EventLog bounds and drop-proof counts, the metrics
// instruments, end-to-end event emission through the simulator (every event
// kind, counts matching the scheduler's own tallies), the ThreadExecutor's
// pop-latency histogram, and the Chrome trace exporter.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "core/multiprio.hpp"
#include "exec/thread_executor.hpp"
#include "obs/export.hpp"
#include "obs/observer.hpp"
#include "sched/schedulers.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

namespace mp {
namespace {

std::size_t count_occurrences(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++n;
  return n;
}

/// Queue depths per memory node or per worker, in recording order.
using DepthTracks = std::map<std::uint32_t, std::vector<std::uint64_t>>;

/// The "C" counter samples of a Chrome trace (one JSON object per line);
/// every sample must be on a `heap_depth.<queue><id>` track.
DepthTracks exported_depths(const std::string& json, const std::string& queue = "node") {
  const std::string name_key = R"("name":"heap_depth.)" + queue;
  const std::string value_key = R"("value":)";
  DepthTracks tracks;
  std::istringstream in(json);
  for (std::string line; std::getline(in, line);) {
    if (line.find(R"("ph":"C")") == std::string::npos) continue;
    const std::size_t name = line.find(name_key);
    const std::size_t value = line.find(value_key);
    EXPECT_NE(name, std::string::npos) << line;
    EXPECT_NE(value, std::string::npos) << line;
    if (name == std::string::npos || value == std::string::npos) continue;
    tracks[static_cast<std::uint32_t>(std::stoul(line.substr(name + name_key.size())))]
        .push_back(std::stoull(line.substr(value + value_key.size())));
  }
  return tracks;
}

/// The heap depths the PUSH / POP / EVICT events carry, per node.
DepthTracks event_depths(const RecordingObserver& obs) {
  DepthTracks tracks;
  for (const SchedEvent& e : obs.events().snapshot())
    if (e.node.valid() &&
        (e.kind == SchedEventKind::Push || e.kind == SchedEventKind::Pop ||
         e.kind == SchedEventKind::Evict))
      tracks[e.node.value()].push_back(e.heap_depth);
  return tracks;
}

/// The queue depths the PUSH / POP events carry, per worker.
DepthTracks worker_event_depths(const RecordingObserver& obs) {
  DepthTracks tracks;
  for (const SchedEvent& e : obs.events().snapshot())
    if (e.worker.valid() && (e.kind == SchedEventKind::Push || e.kind == SchedEventKind::Pop))
      tracks[e.worker.value()].push_back(e.heap_depth);
  return tracks;
}

// --- EventLog ----------------------------------------------------------------

TEST(EventLog, AssignsMonotonicSeqAndSnapshotsOldestFirst) {
  EventLog log(16);
  for (std::size_t i = 0; i < 5; ++i) {
    SchedEvent e;
    e.kind = SchedEventKind::Push;
    e.task = TaskId{i};
    e.time = static_cast<double>(i);
    log.append(e);
  }
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_EQ(events[i].task, TaskId{i});
  }
  EXPECT_EQ(log.size(), 5u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_EQ(log.recorded(), 5u);
}

TEST(EventLog, DropsOldestWhenFullButKindCountsSurvive) {
  EventLog log(4);
  for (std::size_t i = 0; i < 10; ++i) {
    SchedEvent e;
    e.kind = i % 2 == 0 ? SchedEventKind::Push : SchedEventKind::Pop;
    e.task = TaskId{i};
    log.append(e);
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
  EXPECT_EQ(log.recorded(), 10u);
  // The retained window is the most recent 4, oldest first.
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].task, TaskId{6 + i});
  // Per-kind totals count *all* appends, not just the retained ones.
  EXPECT_EQ(log.count(SchedEventKind::Push), 5u);
  EXPECT_EQ(log.count(SchedEventKind::Pop), 5u);
  EXPECT_EQ(log.count(SchedEventKind::Evict), 0u);
}

TEST(EventLog, CsvHasHeaderAndOneRowPerRetainedEvent) {
  EventLog log(8);
  SchedEvent e;
  e.kind = SchedEventKind::Evict;
  e.task = TaskId{std::size_t{3}};
  log.append(e);
  const std::string csv = log.to_csv();
  EXPECT_NE(csv.find("seq"), std::string::npos);
  EXPECT_NE(csv.find("kind"), std::string::npos);
  EXPECT_NE(csv.find("EVICT"), std::string::npos);
}

// --- metrics -----------------------------------------------------------------

TEST(Metrics, CounterHistogramBasics) {
  MetricsRegistry mx;
  Counter& c = mx.counter("c");
  c.inc();
  c.inc(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&mx.counter("c"), &c);  // stable reference, same instrument

  Histogram& h = mx.histogram("h");
  h.observe(1e-6);
  h.observe(2e-6);
  h.observe(1e-3);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 1e-6);
  EXPECT_DOUBLE_EQ(h.max(), 1e-3);
  EXPECT_NEAR(h.sum(), 1e-3 + 3e-6, 1e-12);
  // Bucket-resolution quantile: the p100 bucket upper bound covers the max.
  EXPECT_GE(h.quantile(1.0), 1e-3);
  EXPECT_LE(h.quantile(0.0), 2e-6);

  const std::string dump = mx.to_string();
  EXPECT_NE(dump.find("c"), std::string::npos);
  EXPECT_NE(dump.find("h"), std::string::npos);
}

// --- end-to-end through the simulator ---------------------------------------

/// A platform and workload tuned so that one MultiPrio run produces every
/// event kind: CPUs are 100x slower than the GPU, so the pop_condition
/// rejects (and evicts) every CPU pop attempt; a transient-fault plan with a
/// generous budget forces REPUSH; killing one of two CPU workers at t=0
/// exercises WORKER_LOST without degrading the run.
struct ObservedRun {
  test::EdgeGraph eg{40, {{0, 20}, {1, 21}}, 1e8};
  Platform platform = test::small_platform(2, 1);
  PerfDatabase perf = test::flat_perf(1.0, 100.0);
  RecordingObserver obs;
  SimConfig cfg;
  std::unique_ptr<SimEngine> engine;
  SimResult result;

  ObservedRun() {
    cfg.observer = &obs;
    cfg.fault.transient.push_back(TransientFaultSpec{CodeletId{}, 0.4});
    cfg.fault.retry_budget = 50;
    cfg.fault.worker_losses.push_back(WorkerLossSpec{WorkerId{std::size_t{0}}, 0.0});
    engine = std::make_unique<SimEngine>(eg.graph, platform, perf, cfg);
    result = engine->run(scheduler_factory("multiprio"));
  }
};

TEST(ObsSim, EveryEventKindAppearsAndCountsMatchTheScheduler) {
  ObservedRun run;
  EXPECT_EQ(run.result.tasks_executed, 40u);
  const EventLog& log = run.obs.events();
  for (SchedEventKind k :
       {SchedEventKind::Push, SchedEventKind::Pop, SchedEventKind::PopReject,
        SchedEventKind::Evict, SchedEventKind::Repush, SchedEventKind::WorkerLost,
        SchedEventKind::FaultFailure}) {
    EXPECT_GE(log.count(k), 1u) << "no " << event_kind_name(k) << " event recorded";
  }
  // The event stream and the scheduler's own tallies must agree exactly.
  const auto* mp = dynamic_cast<const MultiPrioScheduler*>(&run.engine->scheduler());
  ASSERT_NE(mp, nullptr);
  EXPECT_EQ(log.count(SchedEventKind::Evict), mp->eviction_total());
  EXPECT_EQ(log.count(SchedEventKind::PopReject), mp->eviction_total());
  EXPECT_EQ(log.count(SchedEventKind::WorkerLost), run.result.fault.workers_lost);
  EXPECT_EQ(log.count(SchedEventKind::FaultFailure), run.result.fault.failures_injected);
  EXPECT_EQ(log.count(SchedEventKind::Repush), run.result.fault.retries);
  // Exactly one successful POP per executed task (failed attempts re-pop).
  EXPECT_EQ(log.count(SchedEventKind::Pop),
            run.result.tasks_executed + run.result.fault.retries);
}

TEST(ObsSim, EventPayloadsCarryTheDecisionContext) {
  ObservedRun run;
  bool saw_pop_with_worker = false;
  bool saw_push_with_gain = false;
  std::uint64_t prev_seq = 0;
  bool first = true;
  for (const SchedEvent& e : run.obs.events().snapshot()) {
    if (!first) {
      EXPECT_GT(e.seq, prev_seq);  // globally ordered
    }
    prev_seq = e.seq;
    first = false;
    EXPECT_GE(e.time, 0.0);
    if (e.kind == SchedEventKind::Pop && e.worker.valid()) saw_pop_with_worker = true;
    if (e.kind == SchedEventKind::Push && e.gain > 0.0) saw_push_with_gain = true;
    if (e.kind == SchedEventKind::PopReject) {
      // The reject payload records the backlog the verdict compared against,
      // which lost to this worker's own estimate.
      EXPECT_TRUE(e.worker.valid());
      EXPECT_GE(e.best_remaining_work, 0.0);
    }
  }
  EXPECT_TRUE(saw_pop_with_worker);
  EXPECT_TRUE(saw_push_with_gain);
}

TEST(ObsSim, MultiPrioMetricsInstrumentsArePopulated) {
  ObservedRun run;
  const MetricsRegistry& mx = run.obs.metrics_registry();
  std::uint64_t window_scans = 0;
  for (const auto& [name, c] : mx.counters())
    if (name == "multiprio.locality_window_scans") window_scans = c->value();
  EXPECT_GT(window_scans, 0u);
  // Heap depth over time is derived from the events: the export has one
  // counter track per memory node, sampled at that node's every PUSH, POP
  // and EVICT.
  const std::string json =
      chrome_trace_json(run.engine->trace(), run.eg.graph, run.platform, &run.obs);
  const DepthTracks tracks = exported_depths(json);
  ASSERT_EQ(tracks.size(), run.platform.num_nodes());
  for (const auto& [node, depths] : tracks) EXPECT_FALSE(depths.empty()) << node;
  EXPECT_EQ(tracks, event_depths(run.obs));
}

TEST(ObsSim, NullObserverAndAbsentObserverAgreeWithRecordedRun) {
  // The observer must be write-only: attaching one (of any kind) cannot
  // change a deterministic schedule.
  test::EdgeGraph a(30, {{0, 15}, {3, 17}}, 1e8);
  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf();
  const SimResult base = simulate(a.graph, p, db, scheduler_factory("multiprio"));

  test::EdgeGraph b(30, {{0, 15}, {3, 17}}, 1e8);
  NullObserver null_obs;
  SimConfig cfg_null;
  cfg_null.observer = &null_obs;
  const SimResult with_null = simulate(b.graph, p, db, scheduler_factory("multiprio"), cfg_null);

  test::EdgeGraph c(30, {{0, 15}, {3, 17}}, 1e8);
  RecordingObserver rec;
  SimConfig cfg_rec;
  cfg_rec.observer = &rec;
  const SimResult with_rec = simulate(c.graph, p, db, scheduler_factory("multiprio"), cfg_rec);

  EXPECT_DOUBLE_EQ(base.makespan, with_null.makespan);
  EXPECT_DOUBLE_EQ(base.makespan, with_rec.makespan);
  EXPECT_GT(rec.events().recorded(), 0u);
}

TEST(ObsSim, EveryPolicyEmitsPushAndPopEvents) {
  for (const std::string name : {"eager", "random", "lws", "dm", "dmda", "dmdas",
                                 "heteroprio", "multiprio"}) {
    test::EdgeGraph eg(12, {}, 1e8);
    Platform p = test::small_platform(2, 1);
    PerfDatabase db = test::flat_perf();
    RecordingObserver obs;
    SimConfig cfg;
    cfg.observer = &obs;
    const SimResult r = simulate(eg.graph, p, db, scheduler_factory(name), cfg);
    EXPECT_EQ(r.tasks_executed, 12u) << name;
    EXPECT_GE(obs.events().count(SchedEventKind::Push), 12u) << name;
    EXPECT_EQ(obs.events().count(SchedEventKind::Pop), 12u) << name;
  }
}

// --- ThreadExecutor ----------------------------------------------------------

TEST(ObsExec, ExecutorRecordsEventsAndPopLatency) {
  TaskGraph g;
  const CodeletId cl = g.add_codelet(
      "inc", {ArchType::CPU, ArchType::GPU},
      [](const Task&, std::span<void* const> bufs) { ++*static_cast<int*>(bufs[0]); });
  std::vector<int> cells(16, 0);
  std::vector<TaskId> tasks;
  for (int& cell : cells) {
    const DataId d = g.add_data(sizeof(int), &cell);
    tasks.push_back(g.submit(cl, {Access{d, AccessMode::ReadWrite}}));
  }
  Platform p = test::small_platform(2, 1);
  PerfDatabase db = test::flat_perf();

  RecordingObserver obs;
  ThreadExecutor exec(g, p, db);
  ExecConfig cfg;
  cfg.stall_timeout = 0.05;
  cfg.observer = &obs;
  const ExecResult r = exec.run(scheduler_factory("multiprio"), cfg);
  EXPECT_EQ(r.tasks_executed, cells.size());
  for (int cell : cells) EXPECT_EQ(cell, 1);

  EXPECT_EQ(obs.events().count(SchedEventKind::Pop), cells.size());
  // Wall-clock timestamps: non-negative and bounded by the run duration.
  for (const SchedEvent& e : obs.events().snapshot()) {
    EXPECT_GE(e.time, 0.0);
    EXPECT_LE(e.time, r.wall_seconds + 1e-3);
  }
  // Every sched->pop call (successful or empty) was timed.
  std::uint64_t pop_timed = 0;
  for (const auto& [name, hist] : obs.metrics_registry().histograms())
    if (name == "exec.pop_latency_s") pop_timed = hist->count();
  EXPECT_GE(pop_timed, cells.size());
}

// --- Chrome trace export -----------------------------------------------------

TEST(ObsExport, ChromeTraceContainsSlicesInstantsAndCounters) {
  ObservedRun run;
  const std::string json =
      chrome_trace_json(run.engine->trace(), run.eg.graph, run.platform, &run.obs);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // One "X" slice per executed segment plus one per positive data stall.
  std::size_t stalls = 0;
  for (const TraceSegment& s : run.engine->trace().segments())
    if (s.data_stall > 0.0) ++stalls;
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""),
            run.engine->trace().num_executed() + stalls);
  // Instants cover the retained scheduler events; each node's counter
  // samples are its PUSH / POP / EVICT events' heap depths, in order.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"i\""), run.obs.events().size());
  const DepthTracks tracks = exported_depths(json);
  EXPECT_FALSE(tracks.empty());
  EXPECT_EQ(tracks, event_depths(run.obs));
  // Every event kind that fired appears by name.
  for (const char* name : {"PUSH", "POP", "POP_REJECT", "EVICT", "REPUSH",
                           "WORKER_LOST", "FAULT_FAILURE"})
    EXPECT_NE(json.find(name), std::string::npos) << name;
  // Per-worker metadata tracks plus the scheduler track.
  EXPECT_EQ(count_occurrences(json, "\"thread_name\""), run.platform.num_workers() + 1);
  // A slice is named by its task's label.
  const TaskId first = run.engine->trace().segments().front().task;
  const std::string slice_name =
      std::string("\"name\":\"").append(run.eg.graph.label(first)).append("\"");
  EXPECT_NE(json.find(slice_name), std::string::npos) << slice_name;
}

/// Chrome trace of a fault-free observed run of `sched` on a 3 CPU + 1 GPU
/// platform.
std::string observed_trace_json(const std::string& sched, RecordingObserver& obs) {
  const test::EdgeGraph eg(40, {{0, 20}, {1, 21}, {2, 22}}, 1e8);
  const Platform p = test::small_platform(3, 1);
  const PerfDatabase db = test::flat_perf(10.0, 20.0);
  SimConfig cfg;
  cfg.observer = &obs;
  SimEngine engine(eg.graph, p, db, cfg);
  (void)engine.run(scheduler_factory(sched));
  return chrome_trace_json(engine.trace(), eg.graph, p, &obs);
}

TEST(ObsExport, PerWorkerQueuesGetOneCounterTrackPerWorker) {
  // dmdas maps at PUSH onto one queue per worker: each worker's track holds
  // exactly that worker's queue depths, in order, and no node track mixes
  // the queues of a node's workers.
  RecordingObserver obs;
  const std::string json = observed_trace_json("dmdas", obs);
  const DepthTracks tracks = exported_depths(json, "worker");
  EXPECT_GT(tracks.size(), 1u);
  EXPECT_EQ(tracks, worker_event_depths(obs));
}

TEST(ObsExport, PoliciesWithoutPerQueuePushesGetNoCounterTrack) {
  // eager's central queue and heteroprio's per-codelet buckets belong to no
  // worker or node: their PUSH events name neither, so no track is drawn.
  for (const char* sched : {"eager", "heteroprio"}) {
    RecordingObserver obs;
    const std::string json = observed_trace_json(sched, obs);
    EXPECT_GT(count_occurrences(json, "\"ph\":\"i\""), 0u) << sched;
    EXPECT_EQ(count_occurrences(json, "\"ph\":\"C\""), 0u) << sched;
  }
}

TEST(ObsExport, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(ObsExport, WriteChromeTraceRoundTrips) {
  ObservedRun run;
  const std::string path = ::testing::TempDir() + "mp_trace_test.json";
  ASSERT_TRUE(write_chrome_trace(path, run.engine->trace(), run.eg.graph,
                                 run.platform, &run.obs));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(static_cast<std::size_t>(size),
            chrome_trace_json(run.engine->trace(), run.eg.graph, run.platform, &run.obs)
                .size());
}

}  // namespace
}  // namespace mp
