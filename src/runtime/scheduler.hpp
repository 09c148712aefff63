// The pluggable scheduling-policy interface (StarPU's PUSH/POP contract).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "runtime/memory_manager.hpp"
#include "runtime/perf_model.hpp"
#include "runtime/platform.hpp"
#include "runtime/task_graph.hpp"
#include "verify/sync.hpp"

namespace mp {

/// Observability hook (src/obs/): typed decision events + metrics. Kept as
/// a forward declaration so the runtime layer stays link-independent of
/// mp_obs; policies that emit include obs/observer.hpp themselves.
class SchedObserver;

/// Engine-provided hook a policy can use to request data prefetch (Dmdas
/// maps tasks at PUSH time and prefetches their data to the target node).
class PrefetchSink {
 public:
  virtual ~PrefetchSink() = default;
  virtual void request_prefetch(DataId data, MemNodeId node) = 0;
};

/// Which workers are still alive. Engines that support fail-stop worker loss
/// own one and flip it *before* notifying the policy; a null liveness in the
/// SchedContext means every worker of the platform is alive.
///
/// Counters are RelaxedAtomics: an internally-locked policy's POP path reads
/// live counts under only its shard lock while the engine flips them under
/// its push-side lock. A pop may therefore judge against a count that
/// is one death stale — a transient the subsequent notify_worker_removed()
/// rebuild (fully serialized) supersedes.
class WorkerLiveness {
 public:
  explicit WorkerLiveness(const Platform& platform)
      : platform_(&platform),
        alive_(platform.num_workers()),
        node_live_(platform.num_nodes()) {
    for (const Worker& w : platform.workers()) {
      alive_[w.id.index()].store(1);
      node_live_[w.node.index()].fetch_add(1);
      arch_live_[arch_index(w.arch)].fetch_add(1);
    }
  }

  [[nodiscard]] bool alive(WorkerId w) const {
    return alive_[w.index()].load() != 0;
  }
  [[nodiscard]] std::size_t live_count(ArchType a) const {
    return arch_live_[arch_index(a)].load();
  }
  [[nodiscard]] std::size_t live_on_node(MemNodeId m) const {
    return node_live_[m.index()].load();
  }

  /// Fail-stop: idempotent, never reversed. Callers serialize marking
  /// (ThreadExecutor flips liveness under its push-side lock).
  void mark_dead(WorkerId w) {
    if (alive_[w.index()].load() == 0) return;
    alive_[w.index()].store(0);
    const Worker& wk = platform_->worker(w);
    node_live_[wk.node.index()].fetch_sub(1);
    arch_live_[arch_index(wk.arch)].fetch_sub(1);
  }

 private:
  const Platform* platform_;
  std::vector<RelaxedAtomic<std::uint8_t>> alive_;
  std::vector<RelaxedAtomic<std::size_t>> node_live_;
  std::array<RelaxedAtomic<std::size_t>, kNumArchTypes> arch_live_{};
};

/// Everything a policy may inspect — the scheduler-visible surface of the
/// runtime (graph topology, platform, δ(t,a) estimates, data placement).
struct SchedContext {
  const TaskGraph* graph = nullptr;
  const Platform* platform = nullptr;
  HistoryModel* perf = nullptr;
  MemoryManager* memory = nullptr;
  /// Current (virtual or wall-clock) time in seconds.
  std::function<double()> now;
  /// May be null when the engine does not support prefetching.
  PrefetchSink* prefetch = nullptr;
  /// May be null when the engine does not support worker loss (= all alive).
  const WorkerLiveness* liveness = nullptr;
  /// Decision-event sink. Null (the default) disables observability at the
  /// cost of one pointer test per decision site — policies must not even
  /// construct an event when it is null.
  SchedObserver* observer = nullptr;
  /// The threaded engine's push-side mutex (see SchedConcurrency::Internal);
  /// a SerializedScheduler serializes its wrapped policy on it. Null in
  /// single-threaded engines, where nothing needs locking.
  Mutex* push_mu = nullptr;
};

/// How a policy expects to be synchronized by a threaded engine.
enum class SchedConcurrency {
  /// The policy does no locking of its own: every call must be serialized
  /// (all the simple mutex-free policies). The ThreadExecutor wraps such a
  /// policy in a SerializedScheduler, which serializes it on the engine's
  /// push-side mutex and gives it the Internal contract below.
  ExternalLock,
  /// The policy locks internally (e.g. one lock per memory-node heap):
  ///  - pop() / work_epoch() / wait_for_work() / interrupt_waiters() are
  ///    thread-safe against everything, including each other;
  ///  - push() / push_batch() / repush() / notify_worker_removed() must be
  ///    serialized *against each other* by the engine (a single push-side
  ///    lock) but may run concurrently with pops;
  ///  - on_task_start() may be called without any lock and must therefore
  ///    be thread-safe; on_task_end() is called under the push-side lock,
  ///    in the critical section that pushes the completion's release batch
  ///    (it may still run concurrently with pops).
  Internal,
};

/// A scheduling policy. The engine calls push() when a task becomes ready
/// and pop() when a worker is idle. A threaded engine parks a worker whose
/// pop() returned nullopt with the work-epoch protocol below; a
/// single-threaded engine re-polls it when its own state changes.
class Scheduler {
 public:
  explicit Scheduler(SchedContext ctx) : ctx_(std::move(ctx)) {}
  virtual ~Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  virtual void push(TaskId t) = 0;
  [[nodiscard]] virtual std::optional<TaskId> pop(WorkerId w) = 0;

  /// Locking contract this policy implements (see SchedConcurrency).
  [[nodiscard]] virtual SchedConcurrency concurrency() const {
    return SchedConcurrency::ExternalLock;
  }

  /// Batched dependency release: all tasks a completion made ready at once.
  /// Internally-locked policies override this to take each target node's
  /// lock once per batch instead of once per task.
  virtual void push_batch(const std::vector<TaskId>& ts) {
    for (TaskId t : ts) push(t);
  }

  // --- Internal-concurrency wait protocol -----------------------------------
  // A worker that saw an empty pop() parks in wait_for_work() until work
  // that *its node* could pop may have appeared. The epoch is read before
  // the pop; any push toward the worker's node afterwards bumps it, so the
  // wait predicate closes the classic lost-wakeup window. ExternalLock
  // policies get this protocol from the SerializedScheduler wrapping them.

  /// Monotonic per-worker-node push counter (relaxed read; 0 by default).
  [[nodiscard]] virtual std::uint64_t work_epoch(WorkerId /*w*/) const { return 0; }

  /// Block until the worker's node epoch moves past `seen`, `cancel()` turns
  /// true, or `timeout_s` elapses (the anti-hang bound — spurious returns
  /// are always safe, the caller just retries its pop).
  virtual void wait_for_work(WorkerId /*w*/, std::uint64_t /*seen*/,
                             double /*timeout_s*/,
                             const std::function<bool()>& /*cancel*/) {}

  /// Wake every worker parked in wait_for_work() (shutdown, abandonment,
  /// worker loss — any engine-side state change the epochs cannot see).
  virtual void interrupt_waiters() {}

  /// Re-enqueues a previously popped task whose execution did not complete —
  /// a transient failure being retried, or work drained off a dead worker.
  /// Policies whose push() tolerates re-insertion inherit this default;
  /// policies with pop-time bookkeeping (MultiPrio's taken-set) override it.
  virtual void repush(TaskId t) { push(t); }

  /// Fail-stop removal of `w`. The engine flips the SchedContext's liveness
  /// mask *before* calling this. The policy must drop per-worker state and
  /// keep every pending task reachable from a live worker; tasks that no
  /// longer have any live capable worker are returned so the engine can
  /// account for their abandonment. Tasks in flight on the dead worker are
  /// the engine's problem (drained and repush()ed afterwards, without a
  /// matching on_task_end for the interrupted on_task_start).
  [[nodiscard]] virtual std::vector<TaskId> notify_worker_removed(WorkerId /*w*/) {
    return {};
  }

  /// Tasks a push-side call could not place anywhere. No engine calls it:
  /// both flip liveness and screen released tasks under their push-side
  /// serialization, so every pushed task has a live capable worker. Kept
  /// because mpbench's timing adapter overrides it.
  [[nodiscard]] virtual std::vector<TaskId> drain_unplaced() { return {}; }

  /// Notifications (optional for policies that track load).
  virtual void on_task_start(TaskId /*t*/, WorkerId /*w*/) {}
  virtual void on_task_end(TaskId /*t*/, WorkerId /*w*/) {}

  [[nodiscard]] virtual std::string name() const = 0;

  /// Number of tasks pushed but not yet popped (for engine sanity checks).
  [[nodiscard]] virtual std::size_t pending_count() const = 0;

  /// Cheap hint: could pop(w) possibly return a task right now? Called only
  /// by single-threaded engines (SimEngine, unlocked), to avoid waking
  /// workers that have nothing to look at. Must never return false when a
  /// pop would succeed; returning true spuriously only costs a failed pop.
  [[nodiscard]] virtual bool has_work_hint(WorkerId /*w*/) const { return true; }

  /// Coarse form of has_work_hint for a whole memory node, asked first by
  /// the simulator's wake scan, once per node. false is a promise that no
  /// worker of `m` would get true from has_work_hint right now, so the scan
  /// skips the node's workers without changing a single pop attempt; true
  /// means "maybe" and the scan asks has_work_hint per worker as before.
  /// The default always says maybe. Override it only where the answer is
  /// exact: a policy whose hint reads the node's own queue, a global queue,
  /// or per-arch state of the archs the node's workers have.
  [[nodiscard]] virtual bool node_has_work_hint(MemNodeId /*m*/) const { return true; }

 protected:
  [[nodiscard]] const SchedContext& ctx() const { return ctx_; }
  SchedContext ctx_;
};

/// A scheduler factory: each engine owns construction so it can hand the
/// policy a fully wired SchedContext. Both engines take the same type; the
/// threaded executor's name for it is kept as an alias.
using SchedulerFactory = std::function<std::unique_ptr<Scheduler>(SchedContext)>;
using ExecSchedulerFactory = SchedulerFactory;

// --- helpers shared by several policies ------------------------------------
// All of these are liveness-aware: with a WorkerLiveness in the context,
// dead workers do not count as capacity, so after a device loss "best arch"
// verdicts are judged against the surviving platform.

/// Is `w` alive (always true without a liveness mask)?
[[nodiscard]] bool worker_alive(const SchedContext& ctx, WorkerId w);

/// Live workers of architecture `a`.
[[nodiscard]] std::size_t live_worker_count(const SchedContext& ctx, ArchType a);

/// Live workers attached to memory node `m`.
[[nodiscard]] std::size_t live_workers_of_node(const SchedContext& ctx, MemNodeId m);

/// Can any live worker execute `t`? False means the task is orphaned.
[[nodiscard]] bool task_has_live_worker(const SchedContext& ctx, TaskId t);

/// Architectures that both have an implementation of `t` and at least one
/// live worker on the platform, i.e. the archs the task can actually run on
/// (bit arch_index(a) per arch; 0 means the task is orphaned).
[[nodiscard]] ArchMask enabled_archs(const SchedContext& ctx, TaskId t);

/// Fastest arch of `archs` by already-resolved estimates, `delta[arch_index(a)]`
/// = δ(t,a) (entries outside `archs` are ignored; the lowest arch index wins
/// ties); nullopt for an empty set.
[[nodiscard]] std::optional<ArchType> fastest_arch(
    ArchMask archs, const std::array<double, kNumArchTypes>& delta);

/// Fastest enabled arch for `t` according to δ(t,a); requires ≥1 enabled.
[[nodiscard]] ArchType best_arch_for(const SchedContext& ctx, TaskId t);

}  // namespace mp
