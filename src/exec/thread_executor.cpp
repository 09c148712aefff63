#include "exec/thread_executor.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <mutex>

#include "common/check.hpp"
#include "core/multiprio.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "runtime/serialized_scheduler.hpp"
#include "verify/controller.hpp"
#include "verify/sync.hpp"

namespace mp {

ThreadExecutor::ThreadExecutor(const TaskGraph& graph, const Platform& platform,
                               const PerfDatabase& perf)
    : graph_(graph), platform_(platform), perf_(perf) {
  platform_.self_check();
  graph_.self_check();
}

const Trace& ThreadExecutor::trace() const {
  MP_CHECK_MSG(lifecycle_ != nullptr, "run() first");
  return lifecycle_->trace();
}

std::span<const double> ThreadExecutor::predicted_durations() const {
  MP_CHECK_MSG(lifecycle_ != nullptr, "run() first");
  return lifecycle_->predicted_durations();
}

ExecResult ThreadExecutor::run(const ExecSchedulerFactory& make_scheduler,
                               ExecConfig config) {
  HistoryModel history(graph_, perf_);
  MemoryManager memory(graph_, platform_);
  DepCounters deps(graph_);
  WorkerLiveness liveness(platform_);

  // Shim primitives (src/verify/sync.hpp): plain std:: types in normal
  // builds, controlled by the interleaving explorer under MP_VERIFY.
  //
  // Lock hierarchy (DESIGN.md §12): mu → push_mu → shard locks (ascending)
  // → leaves. `mu` guards the engine bookkeeping (deps, the task lifecycle,
  // memory placement); `push_mu` serializes the push side of
  // the policy (push/push_batch/repush/notify_worker_removed), the liveness
  // flips and the HistoryModel writes its readers key off. A mutex-free
  // policy is wrapped in a SerializedScheduler that takes push_mu for every
  // other call too.
  Mutex mu;
  Mutex push_mu;
  const std::size_t total = graph_.num_tasks();
  const double t0 = sync_now_seconds();
  auto elapsed = [t0] { return sync_now_seconds() - t0; };

  SchedContext ctx;
  ctx.graph = &graph_;
  ctx.platform = &platform_;
  ctx.perf = &history;
  ctx.memory = &memory;
  ctx.now = elapsed;
  ctx.prefetch = nullptr;  // no timed links in real mode
  ctx.liveness = &liveness;
  ctx.observer = config.observer;
  ctx.push_mu = &push_mu;
  // Kernel exceptions are retried even without a plan, against the budget
  // of a default-constructed FaultPlan.
  lifecycle_ = std::make_unique<TaskLifecycle>(ctx, config.fault);
  TaskLifecycle& lifecycle = *lifecycle_;
  std::vector<double> lost_at(platform_.num_workers(),
                              std::numeric_limits<double>::infinity());
  for (const WorkerLossSpec& l : config.fault.worker_losses)
    lost_at[l.worker.index()] = std::min(lost_at[l.worker.index()], l.time);
  // Resolve every instrument once; per-pop timing is taken only when its
  // histogram resolved (no clock reads on the observer-free path).
  MetricsRegistry* metrics =
      config.observer != nullptr ? config.observer->metrics() : nullptr;
  Histogram* pop_latency =
      metrics != nullptr ? &metrics->histogram("exec.pop_latency_s") : nullptr;
  Counter* stall_counter =
      metrics != nullptr ? &metrics->counter("exec.stall_timeouts") : nullptr;
  // Parks that lasted the full stall timeout: the worker was rescued by the
  // timeout, not woken by a signal.
  RelaxedAtomic<std::size_t> stall_timeouts{0};
  std::unique_ptr<Scheduler> sched = make_scheduler(ctx);
  MP_CHECK(sched != nullptr);
  // One locking contract: a policy that does no locking of its own gets the
  // Internal contract from the adapter.
  if (sched->concurrency() == SchedConcurrency::ExternalLock)
    sched = std::make_unique<SerializedScheduler>(ctx, std::move(sched));

#ifdef MP_VERIFY
  // Structural-invariant oracle: evaluated on every release of a probed
  // mutex during an active exploration (no-op otherwise). check_invariants()
  // itself takes every shard lock, so it must only run when no suspended
  // thread holds one — verify_quiescent() gates it. A MultiPrio behind the
  // adapter ("multiprio-coarse") is probed through it.
  Scheduler* probed = sched.get();
  if (auto* serialized = dynamic_cast<SerializedScheduler*>(probed))
    probed = &serialized->inner();
  auto* probed_multiprio = dynamic_cast<MultiPrioScheduler*>(probed);
  auto* probed_recorder = dynamic_cast<RecordingObserver*>(config.observer);
  auto probe_body = [probed_multiprio, probed_recorder] {
    if (probed_multiprio != nullptr && probed_multiprio->verify_quiescent()) {
      std::string why;
      if (!probed_multiprio->check_invariants(&why))
        verify::report_violation("MultiPrio invariant broken: " + why);
    }
    if (probed_recorder != nullptr && !probed_recorder->events().accounting_ok())
      verify::report_violation(
          "EventLog drop accounting out of balance (append race)");
  };
  verify::ScopedProbe invariant_probe(&mu, probe_body);
  verify::ScopedProbe push_probe(&push_mu, probe_body);
  std::vector<std::unique_ptr<verify::ScopedProbe>> shard_probes;
  if (probed_multiprio != nullptr)
    for (const Mutex* sm : probed_multiprio->verify_shard_mutexes())
      shard_probes.push_back(std::make_unique<verify::ScopedProbe>(sm, probe_body));
#endif

  {
    std::lock_guard plock(push_mu);
    sched->push_batch(graph_.initial_ready());
  }

  ExecResult result;
  // Per-handle mutexes enforcing AccessMode::Commute mutual exclusion.
  std::vector<Mutex> commute_mu(graph_.handles().count());

  // Fail-stop: liveness flips and the policy rebuilds in one push_mu
  // critical section, so a serialized policy never pops in between; the
  // orphans it surrenders are abandoned. Requires `mu`.
  auto lose_worker = [&](WorkerId w) {
    std::vector<TaskId> orphans;
    {
      std::lock_guard plock(push_mu);
      liveness.mark_dead(w);
      lifecycle.worker_lost(w);
      orphans = sched->notify_worker_removed(w);
    }
    for (TaskId t : orphans) lifecycle.abandon(t);
  };

  // The worker loop: pops run without any executor lock (the policy, or the
  // adapter around it, locks itself), engine bookkeeping takes `mu` only
  // around its own state, pushes serialize on `push_mu`, and idle workers
  // park in the policy's work-epoch protocol. The lifecycle's settled count
  // is read without `mu` (loop condition and wait_for_work cancel predicate);
  // a stale read only costs one extra failed pop.
  auto worker_body = [&](WorkerId w) {
    const ArchType arch = platform_.worker(w).arch;
    auto parked_cancel = [&] { return lifecycle.settled() >= total; };
    while (lifecycle.settled() < total) {
      if (elapsed() >= lost_at[w.index()]) {
        // This thread retires between tasks.
        std::lock_guard lock(mu);
        lose_worker(w);
        sched->interrupt_waiters();
        return;
      }
      // Epoch before the pop: any push toward this worker's node after this
      // read bumps it, so the wait below cannot miss a wakeup.
      const std::uint64_t epoch = sched->work_epoch(w);
      const double pop_begin = pop_latency != nullptr ? sync_now_seconds() : 0.0;
      const std::optional<TaskId> popped = sched->pop(w);
      if (pop_latency != nullptr)
        pop_latency->observe(std::max(0.0, sync_now_seconds() - pop_begin));
      if (!popped) {
        // Timed wait: a buggy policy must not hang the process — the worker
        // simply retries, and the post-run checks will flag lost tasks.
        const double park_begin = sync_now_seconds();
        sched->wait_for_work(w, epoch, config.stall_timeout, parked_cancel);
        if (sync_now_seconds() - park_begin >= config.stall_timeout) {
          stall_timeouts.fetch_add(1);
          if (stall_counter != nullptr) stall_counter->inc();
        }
        continue;
      }
      const TaskId t = *popped;
      std::size_t attempt = 0;
      {
        std::lock_guard lock(mu);
        attempt = lifecycle.popped(t, w);
        // Keep logical data placement in sync so locality heuristics see
        // the same world as in simulation (transfers are free functionally).
        std::vector<TransferOp> ops;
        memory.acquire_for_task(t, platform_.worker(w).node, ops);
      }
      double predicted = 0.0;
      if (config.observer != nullptr) {
        // Pop-time δ(t,a) for the model audit, before this task's own
        // completion re-trains the model. Reads race with history.record()
        // — serialize on push_mu, the lock every record() below holds.
        std::lock_guard plock(push_mu);
        predicted = history.estimate(t, arch);
      }
      sched->on_task_start(t, w);  // lock-free per the Internal contract

      const Codelet& cl = graph_.codelet_of(t);
      const KernelFn& fn = (arch == ArchType::GPU && cl.gpu_fn) ? cl.gpu_fn : cl.cpu_fn;
      MP_CHECK_MSG(static_cast<bool>(fn), "no runnable implementation for popped task");
      std::vector<void*> buffers;
      buffers.reserve(graph_.task(t).accesses.size());
      std::vector<std::uint32_t> locks;
      for (const Access& a : graph_.task(t).accesses) {
        buffers.push_back(graph_.handles().get(a.data).user_ptr);
        if (a.mode == AccessMode::Commute) locks.push_back(a.data.value());
      }
      // Commute accesses may race with other commuters of the same handle:
      // hold the handle mutexes for the kernel, locking in sorted order.
      std::sort(locks.begin(), locks.end());
      locks.erase(std::unique(locks.begin(), locks.end()), locks.end());
      for (std::uint32_t d : locks) commute_mu[d].lock();
      const double start = sync_now_seconds();
      bool failed = false;
      try {
        fn(graph_.task(t), buffers);
      } catch (...) {
        failed = true;  // exception-to-retry: treated as a transient failure
      }
      const double stop = sync_now_seconds();
      const double dur = std::max(1e-9, stop - start);
      for (auto it = locks.rbegin(); it != locks.rend(); ++it)
        commute_mu[*it].unlock();
      double mult = 1.0;
      if (!failed) {
        failed = lifecycle.attempt_fails(t, attempt);
        mult = lifecycle.attempt_multiplier(t, attempt);
        // Functional emulation of a straggler: hold the worker as long as
        // the slowdown would have. A real kernel cannot be sped up, so a
        // multiplier below 1 is only counted.
        if (mult > 1.0) sync_sleep_for(std::chrono::duration<double>(dur * (mult - 1.0)));
      }

      // Account the attempt: a failure is retried or abandoned, a success
      // releases its successors.
      std::vector<TaskId> ready;
      bool retry = false;
      {
        std::lock_guard lock(mu);
        lifecycle.straggled(t, w, mult);
        if (failed) {
          retry = lifecycle.failed(t, w);
        } else {
          // The raw readings, not start + dur: a successor starts no
          // earlier than this segment's end on the same clock.
          lifecycle.completed(
              TraceSegment{t, w, start - t0, start - t0, stop - t0, 0.0}, predicted);
          deps.complete(t, ready);
        }
      }
      std::vector<TaskId> orphaned;
      if (!failed || retry) {
        std::lock_guard plock(push_mu);
        if (retry) {
          sched->repush(t);
        } else {
          // One grouped push per completion, opened by the end notice: the
          // policy takes each target node's lock once for the whole batch
          // and wakes only those nodes. Liveness flips under push_mu, so
          // this screen cannot go stale.
          sched->on_task_end(t, w);
          history.record(t, arch, dur);
          // workers_lost only moves under push_mu (lose_worker), so this
          // read needs no `mu`.
          if (lifecycle.stats().workers_lost > 0) {
            const auto orphans = std::stable_partition(
                ready.begin(), ready.end(),
                [&](TaskId nt) { return task_has_live_worker(ctx, nt); });
            orphaned.assign(orphans, ready.end());
            ready.erase(orphans, ready.end());
          }
          sched->push_batch(ready);
        }
      }
      if (!orphaned.empty()) {
        std::lock_guard lock(mu);
        for (TaskId ot : orphaned) lifecycle.abandon(ot);
      }
      if (lifecycle.settled() >= total) sched->interrupt_waiters();
    }
  };

  // Losses at t <= 0 are applied before any thread spawns, and such a
  // worker gets no thread: the run must see them even if the surviving
  // workers finish the DAG before the doomed thread gets scheduled by the OS.
  {
    std::lock_guard lock(mu);
    for (std::size_t wi = 0; wi < platform_.num_workers(); ++wi)
      if (lost_at[wi] <= 0.0) lose_worker(WorkerId{wi});
  }

  std::vector<Thread> threads;
  threads.reserve(platform_.num_workers());
  for (std::size_t wi = 0; wi < platform_.num_workers(); ++wi)
    if (liveness.alive(WorkerId{wi})) threads.emplace_back(worker_body, WorkerId{wi});
  for (auto& th : threads) th.join();

  result.fault = lifecycle.finish();
  MP_CHECK_MSG(sched->pending_count() == 0, "scheduler still holds tasks");
  result.wall_seconds = sync_now_seconds() - t0;
  result.stall_timeouts = stall_timeouts.load();
  result.tasks_executed = total - result.fault.tasks_abandoned;
  return result;
}

}  // namespace mp
