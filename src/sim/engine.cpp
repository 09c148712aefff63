#include "sim/engine.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/multiprio.hpp"

namespace mp {

SimEngine::SimEngine(const TaskGraph& graph, const Platform& platform,
                     const PerfDatabase& perf, SimConfig config)
    : graph_(graph), platform_(platform), perf_(perf), cfg_(config) {
  platform_.self_check();
  graph_.self_check();
  link_free_at_.assign(platform.num_nodes(), 0.0);
  pipeline_free_at_.assign(platform.num_workers(), 0.0);
  worker_busy_.assign(platform.num_workers(), 0);
  pending_.assign(platform.num_workers(), {});
  trypop_pending_.assign(platform.num_workers(), 0);
  attempt_on_.resize(platform.num_workers());
}

const Trace& SimEngine::trace() const {
  MP_CHECK_MSG(lifecycle_ != nullptr, "run() first");
  return lifecycle_->trace();
}

std::span<const double> SimEngine::predicted_durations() const {
  MP_CHECK_MSG(lifecycle_ != nullptr, "run() first");
  return lifecycle_->predicted_durations();
}

const MemoryManager& SimEngine::memory() const {
  MP_CHECK_MSG(memory_ != nullptr, "run() first");
  return *memory_;
}

const HistoryModel& SimEngine::history() const {
  MP_CHECK_MSG(history_ != nullptr, "run() first");
  return *history_;
}

Scheduler& SimEngine::scheduler() {
  MP_CHECK_MSG(sched_ != nullptr, "run() first");
  return *sched_;
}

void SimEngine::request_prefetch(DataId data, MemNodeId node) {
  if (!running_) return;
  // Prefetching onto a retired device would strand the copy.
  if (platform_.node(node).kind == MemNodeKind::Gpu &&
      liveness_->live_on_node(node) == 0)
    return;
  std::vector<TransferOp> ops;
  memory_->prefetch(data, node, ops);
  (void)charge_transfers(ops, now_);
}

void SimEngine::schedule_try_pop(WorkerId w, double time) {
  if (!liveness_->alive(w)) return;
  if (trypop_pending_[w.index()] != 0) return;
  trypop_pending_[w.index()] = 1;
  event_heap_.push_back(Event{time, next_seq_++, Event::Kind::TryPop, w, TaskId{}});
  std::push_heap(event_heap_.begin(), event_heap_.end(),
                 [](const Event& a, const Event& b) { return a.after(b); });
}

void SimEngine::wake_idle_workers() {
  // Rotate the wake order so no worker class systematically outraces the
  // others to freshly pushed tasks (real workers poll concurrently).
  const std::size_t n = platform_.num_workers();
  std::size_t wi = wake_rotor_;
  for (std::size_t off = 0; off < n; ++off, wi = wi + 1 < n ? wi + 1 : 0) {
    // A worker with a TryPop already queued would drop a second one; skip
    // it before asking the policy (the hint is a pure query). An idle
    // worker wants work when its pipeline is empty, a busy one when a
    // pipeline slot is free.
    if (trypop_pending_[wi] != 0) continue;
    const std::size_t queued = pending_[wi].size();
    if (worker_busy_[wi] != 0 ? queued >= cfg_.pipeline_depth : queued != 0) continue;
    const WorkerId w{wi};
    if (liveness_->alive(w) && sched_->has_work_hint(w)) schedule_try_pop(w, now_);
  }
  wake_rotor_ = (wake_rotor_ + 1) % std::max<std::size_t>(1, n);
}

void SimEngine::push_ready(TaskId t) {
  // After a loss, a newly released task may have no surviving capable
  // worker; handing it to the scheduler would only strand it there.
  if (lifecycle_->stats().workers_lost > 0 && !task_has_live_worker(sched_ctx_, t)) {
    lifecycle_->abandon(t);
    return;
  }
  sched_->push(t);
}

double SimEngine::charge_transfers(const std::vector<TransferOp>& ops, double start) {
  double done = start;
  for (const TransferOp& op : ops) {
    // A transfer crosses the link of every GPU endpoint it touches; GPU→GPU
    // hops through RAM and serializes on both device links.
    double t = start;
    for (MemNodeId endpoint : {op.from, op.to}) {
      const MemNode& n = platform_.node(endpoint);
      if (n.kind != MemNodeKind::Gpu) continue;
      const double begin = std::max(t, link_free_at_[endpoint.index()]);
      const double wire =
          n.latency_s + static_cast<double>(op.bytes) / n.bandwidth_bytes_per_s;
      link_free_at_[endpoint.index()] = begin + wire;
      t = begin + wire;
    }
    done = std::max(done, t);
  }
  return done;
}

bool SimEngine::fill_pending(WorkerId w) {
  const std::optional<TaskId> popped = sched_->pop(w);
  if (!popped) {
    ++failed_pops_;
    return false;
  }
  const TaskId t = *popped;
  const Worker& worker = platform_.worker(w);
  const std::size_t attempt = lifecycle_->popped(t, w);
  // The δ the scheduler believed when it committed this placement — captured
  // now, because completions keep re-training the history model.
  const double predicted = history_->estimate(t, worker.arch);
  fetch_ops_.clear();
  memory_->acquire_for_task(t, worker.node, fetch_ops_);
  const double ready = charge_transfers(fetch_ops_, now_);
  memory_->pin_task_data(t, worker.node);

  double duration = perf_.ground_truth(graph_, t, worker.arch);
  if (cfg_.noise_sigma > 0.0) {
    Rng rng = Rng::derive(cfg_.seed, t.value());
    duration *= std::max(0.05, 1.0 + cfg_.noise_sigma * rng.next_normal());
  }
  const double mult = lifecycle_->attempt_multiplier(t, attempt);
  duration *= mult;
  lifecycle_->straggled(t, w, mult);

  // Commute mutual exclusion: reserve the handles' serialization points at
  // the task's exact predicted start (durations are deterministic, so the
  // pipeline drain prediction is exact).
  double start_floor = 0.0;
  bool has_commute = false;
  for (const Access& a : graph_.task(t).accesses)
    has_commute = has_commute || a.mode == AccessMode::Commute;
  double& pfa = pipeline_free_at_[w.index()];
  double start = std::max({pfa, now_, ready});
  if (has_commute) {
    for (const Access& a : graph_.task(t).accesses)
      if (a.mode == AccessMode::Commute)
        start = std::max(start, commute_free_at_[a.data.index()]);
    for (const Access& a : graph_.task(t).accesses)
      if (a.mode == AccessMode::Commute) commute_free_at_[a.data.index()] = start + duration;
    start_floor = start;
  }
  pfa = start + duration;

  pending_[w.index()].push_back(
      PendingTask{t, now_, ready, start_floor, duration, predicted});
  return true;
}

void SimEngine::start_pending(WorkerId w) {
  MP_ASSERT(!pending_[w.index()].empty() && !worker_busy_[w.index()]);
  const PendingTask p = pending_[w.index()].front();
  pending_[w.index()].erase(pending_[w.index()].begin());
  worker_busy_[w.index()] = 1;

  const double exec_start = std::max({now_, p.data_ready_at, p.start_floor});
  const double end = exec_start + p.duration;

  // Stall the worker actually observed: it was free at now_, data landed at
  // data_ready_at; pipelined transfers that finished during the previous
  // execution cost nothing. The trace is recorded at *completion* (a failed
  // or interrupted attempt must never appear as an execution), so stash what
  // the record will need.
  const double stall = std::max(0.0, p.data_ready_at - now_);
  attempt_on_[w.index()] = RunningAttempt{p, exec_start, stall};
  sched_->on_task_start(p.task, w);

  event_heap_.push_back(Event{end, next_seq_++, Event::Kind::Complete, w, p.task});
  std::push_heap(event_heap_.begin(), event_heap_.end(),
                 [](const Event& a, const Event& b) { return a.after(b); });
}

void SimEngine::handle_try_pop(WorkerId w) {
  trypop_pending_[w.index()] = 0;
  if (!liveness_->alive(w)) return;  // queued before the worker's loss
  bool took_something = false;
  if (!worker_busy_[w.index()]) {
    // Start work: either the pipelined pending task or a fresh pop.
    if (!pending_[w.index()].empty() || fill_pending(w)) {
      start_pending(w);
      took_something = true;
    }
  } else if (cfg_.pipeline_depth > 0 &&
             pending_[w.index()].size() < cfg_.pipeline_depth) {
    // Pipeline: a busy worker with a free slot pops an upcoming task so its
    // data transfers overlap with the current execution (as StarPU's worker
    // prefetch pipeline does). One fill per event — further fills are
    // deferred so idle peers get to start their own tasks first.
    took_something = fill_pending(w);
  }
  if (took_something) {
    if (worker_busy_[w.index()] && pending_[w.index()].size() < cfg_.pipeline_depth) {
      schedule_try_pop(w, now_);  // deferred next pipeline fill
    }
    // A successful pop changes scheduler state (queues, remaining-work
    // ledgers): parked workers re-evaluate.
    wake_idle_workers();
  }
}

void SimEngine::handle_complete(const Event& e) {
  const std::size_t wi = e.worker.index();
  // A Complete queued by an attempt that was drained off a lost worker.
  if (!liveness_->alive(e.worker)) return;
  MP_ASSERT(worker_busy_[wi] && attempt_on_[wi].p.task == e.task);
  const RunningAttempt run = attempt_on_[wi];
  const Worker& worker = platform_.worker(e.worker);
  memory_->unpin_task_data(e.task, worker.node);
  worker_busy_[wi] = 0;

  if (lifecycle_->attempt_fails(e.task, lifecycle_->attempt(e.task))) {
    // Transient failure: the attempt's time is spent, its result discarded.
    // Data stays coherent (the acquire already happened); the retry simply
    // re-acquires at its next pop, wherever that lands.
    if (lifecycle_->failed(e.task, e.worker)) sched_->repush(e.task);
    schedule_try_pop(e.worker, now_);
    wake_idle_workers();
    return;
  }

  // Feed the history model with the measured duration (includes noise and
  // straggler slowdown), as StarPU's calibration does.
  history_->record(e.task, worker.arch, std::max(1e-12, run.p.duration));
  lifecycle_->completed(
      TraceSegment{e.task, e.worker, run.p.popped_at, run.exec_start, e.time, run.stall},
      run.p.predicted);

  // Notify completion before pushing the released successors so policies
  // with push-site locality (LWS) know which worker produced them.
  sched_->on_task_end(e.task, e.worker);
  released_.clear();
  deps_->complete(e.task, released_);
  for (TaskId t : released_) push_ready(t);

  schedule_try_pop(e.worker, now_);
  wake_idle_workers();
}

void SimEngine::handle_worker_loss(const Event& e) {
  const WorkerId w = e.worker;
  if (!liveness_->alive(w)) return;  // duplicate loss spec
  const Worker& worker = platform_.worker(w);
  liveness_->mark_dead(w);
  lifecycle_->worker_lost(w);

  // Drain the interrupted attempt and the pipelined pops. Their pins go
  // before any evacuation; their stale Complete/TryPop events are ignored by
  // the liveness guards at the handlers' entry. Commute reservations of the
  // drained attempts are left standing — stale reservations only
  // over-serialize, they cannot violate mutual exclusion.
  std::vector<TaskId> drained;
  if (worker_busy_[w.index()]) {
    drained.push_back(attempt_on_[w.index()].p.task);
    worker_busy_[w.index()] = 0;
  }
  for (const PendingTask& p : pending_[w.index()]) drained.push_back(p.task);
  pending_[w.index()].clear();
  for (TaskId t : drained) memory_->unpin_task_data(t, worker.node);

  // Last worker of a GPU node: retire the device gracefully, migrating sole
  // authoritative copies back to RAM while the link still exists.
  if (platform_.node(worker.node).kind == MemNodeKind::Gpu &&
      liveness_->live_on_node(worker.node) == 0) {
    std::vector<TransferOp> ops;
    memory_->evacuate_node(worker.node, ops);
    (void)charge_transfers(ops, now_);
  }

  // Liveness is already flipped: the policy rebuilds against the surviving
  // platform and surrenders tasks nobody can run any more.
  std::vector<TaskId> orphans = sched_->notify_worker_removed(w);
  for (TaskId t : drained) {
    if (task_has_live_worker(sched_ctx_, t)) {
      lifecycle_->requeued(t, w);
      sched_->repush(t);
    } else {
      orphans.push_back(t);
    }
  }
  for (TaskId t : orphans) lifecycle_->abandon(t);
  wake_idle_workers();
}

std::string SimEngine::stall_diagnostic(std::size_t processed) const {
  std::ostringstream os;
  os << "simulation stalled: " << processed << " events processed (cap "
     << "reached) at t=" << now_ << "\n  scheduler " << sched_->name()
     << ": pending_count=" << sched_->pending_count()
     << ", failed_pops=" << failed_pops_ << "\n";
  for (std::size_t wi = 0; wi < platform_.num_workers(); ++wi) {
    os << "  worker " << wi << " (" << platform_.worker(WorkerId{wi}).name
       << "): " << (liveness_->alive(WorkerId{wi}) ? "alive" : "DEAD")
       << (worker_busy_[wi] ? ", busy" : ", idle")
       << ", pipeline=" << pending_[wi].size() << "\n";
  }
  if (const auto* mp = dynamic_cast<const MultiPrioScheduler*>(sched_.get())) {
    for (std::size_t mi = 0; mi < platform_.num_nodes(); ++mi)
      os << "  node " << mi << ": heap=" << mp->heap(MemNodeId{mi}).size()
         << ", ready=" << mp->ready_tasks_count(MemNodeId{mi})
         << ", brw=" << mp->best_remaining_work(MemNodeId{mi}) << "\n";
  }
  std::size_t stuck = 0;
  os << "  stuck tasks:";
  for (std::size_t ti = 0; ti < graph_.num_tasks(); ++ti) {
    if (lifecycle_->settled(TaskId{ti})) continue;
    if (++stuck <= 16) os << ' ' << ti;
  }
  os << (stuck > 16 ? " ...\n" : "\n") << "  stuck total: " << stuck << "\n";
  return os.str();
}

SimResult SimEngine::run(const SchedulerFactory& make_scheduler) {
  MP_CHECK_MSG(!running_ && lifecycle_ == nullptr, "engine is single-shot");
  history_ = std::make_unique<HistoryModel>(graph_, perf_);
  if (cfg_.calibrated) history_->seed_from_truth();
  memory_ = std::make_unique<MemoryManager>(graph_, platform_);
  deps_ = std::make_unique<DepCounters>(graph_);
  liveness_ = std::make_unique<WorkerLiveness>(platform_);
  commute_free_at_.assign(graph_.handles().count(), 0.0);

  sched_ctx_.graph = &graph_;
  sched_ctx_.platform = &platform_;
  sched_ctx_.perf = history_.get();
  sched_ctx_.memory = memory_.get();
  sched_ctx_.now = [this] { return now_; };
  sched_ctx_.prefetch = this;
  sched_ctx_.liveness = liveness_.get();
  sched_ctx_.observer = cfg_.observer;
  lifecycle_ = std::make_unique<TaskLifecycle>(sched_ctx_, cfg_.fault);
  sched_ = make_scheduler(sched_ctx_);
  MP_CHECK(sched_ != nullptr);
  running_ = true;

  // Loss events enter the heap first so a loss scheduled at t=0 outraces the
  // initial pop attempts (lower seq wins among simultaneous events).
  for (const WorkerLossSpec& l : cfg_.fault.worker_losses) {
    event_heap_.push_back(
        Event{l.time, next_seq_++, Event::Kind::WorkerLoss, l.worker, TaskId{}});
    std::push_heap(event_heap_.begin(), event_heap_.end(),
                   [](const Event& a, const Event& b) { return a.after(b); });
  }
  for (TaskId t : graph_.initial_ready()) push_ready(t);
  for (std::size_t wi = 0; wi < platform_.num_workers(); ++wi)
    schedule_try_pop(WorkerId{wi}, 0.0);

  const std::size_t max_events =
      cfg_.max_events > 0 ? cfg_.max_events
                          : 1000 + graph_.num_tasks() * (20 + 4 * platform_.num_workers());
  std::size_t processed = 0;
  while (!event_heap_.empty()) {
    std::pop_heap(event_heap_.begin(), event_heap_.end(),
                  [](const Event& a, const Event& b) { return a.after(b); });
    const Event e = event_heap_.back();
    event_heap_.pop_back();
    MP_CHECK(e.time >= now_ - 1e-12);
    now_ = std::max(now_, e.time);
    switch (e.kind) {
      case Event::Kind::TryPop: handle_try_pop(e.worker); break;
      case Event::Kind::Complete: handle_complete(e); break;
      case Event::Kind::WorkerLoss: handle_worker_loss(e); break;
    }
    if (++processed > max_events) {
      std::fputs(stall_diagnostic(processed).c_str(), stderr);
      MP_CHECK_MSG(false, "event explosion: scheduler livelock or engine bug");
    }
  }
  running_ = false;

  // Conservation: every task either executed exactly once or was explicitly
  // abandoned; nothing is stranded inside the scheduler or a worker queue.
  const FaultStats fault = lifecycle_->finish();
  MP_CHECK_MSG(sched_->pending_count() == 0, "scheduler still holds tasks");
  for (std::size_t wi = 0; wi < platform_.num_workers(); ++wi)
    MP_ASSERT(!worker_busy_[wi] && pending_[wi].empty());
  const Trace& trace = lifecycle_->trace();

  SimResult r;
  r.makespan = trace.makespan();
  r.tasks_executed = trace.num_executed();
  for (const MemNode& n : platform_.nodes()) {
    if (n.kind != MemNodeKind::Gpu) continue;
    r.bytes_to_gpus += memory_->total_bytes_to(n.id);
    r.bytes_from_gpus += memory_->total_bytes_from(n.id);
  }
  r.evictions = memory_->eviction_count();
  r.failed_pops = failed_pops_;
  r.fault = fault;
  r.idle_per_node.resize(platform_.num_nodes());
  for (std::size_t mi = 0; mi < platform_.num_nodes(); ++mi)
    r.idle_per_node[mi] = trace.idle_fraction_node(MemNodeId{mi});
  return r;
}

SimResult simulate(const TaskGraph& graph, const Platform& platform,
                   const PerfDatabase& perf, const SchedulerFactory& make_scheduler,
                   SimConfig config) {
  SimEngine engine(graph, platform, perf, config);
  return engine.run(make_scheduler);
}

}  // namespace mp
