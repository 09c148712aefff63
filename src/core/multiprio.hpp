// MultiPrio — the paper's scheduler (Sections III–V).
//
// One binary max-heap of ready tasks per memory node; tasks are duplicated
// into every heap whose processing units can execute them, keyed by
// (gain, NOD criticality). POP selects the most data-local task among the
// best `n` candidates within `ε` of the top score, then applies the
// pop_condition: a non-best worker only takes the task when the best
// architecture's accumulated remaining work exceeds the task's estimated
// time on this worker; otherwise the task is evicted from this node's heap
// (it always survives in the best architecture's heaps).
//
// Sharded locking (SchedConcurrency::Internal): the per-node heaps that the
// paper introduces for locality double as *lock shards*. Each memory node
// owns one mp::Mutex + mp::CondVar; a POP on node m touches only m's lock,
// a PUSH takes the (few) target-node locks in ascending-node order, and the
// cross-shard state — the per-task taken flag, the per-record live-node
// mask, ready counters and the best_remaining_work ledger — lives in
// RelaxedAtomics whose single commit point is the Pending→Taken CAS. The
// single-lock baseline ("multiprio-coarse") is this policy wrapped in a
// SerializedScheduler; the decision code is the same.
//
// The scheduler is built from a finished graph: the per-task state table is
// sized once at construction and never reallocates, so a POP dereferences
// entries under its own shard lock only. A push of a task submitted after
// construction trips an always-on check.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/gain.hpp"
#include "core/locality.hpp"
#include "core/nod.hpp"
#include "core/scored_heap.hpp"
#include "runtime/scheduler.hpp"
#include "verify/sync.hpp"

namespace mp {

class Counter;
class Histogram;

struct MultiPrioConfig {
  /// Locality window size (paper: n = 10). Each node heap's sorted front is
  /// sized once to hold the window.
  std::size_t locality_n = 10;
  /// Score-difference threshold for the locality window (paper: ε = 0.8).
  double epsilon = 0.8;
  /// Ablation switches (all ON reproduces the paper).
  bool use_eviction = true;   // Section V-D
  bool use_locality = true;   // Section V-C
  bool use_nod = true;        // Section V-B tiebreaker
  /// Divide best_remaining_work by the best arch's worker count in the
  /// pop_condition, i.e. compare the task's time on this worker against the
  /// expected *per-worker* backlog of the best architecture. The literal
  /// raw-sum reading of Algorithm 2 lets every slow worker divert work as
  /// soon as the global backlog exceeds one task (a 30-CPU node then starves
  /// its GPUs — see bench_ablation_multiprio); per-worker normalization is
  /// the behaviour consistent with the paper's results and is the default.
  bool normalize_brw_by_workers = true;
};

class MultiPrioScheduler final : public Scheduler {
 public:
  /// The wake rule's gate: a parked worker is woken for parallelism only
  /// for a task whose calibrated δ(t, node arch) is at least this long. It
  /// sits above the 99th percentile of a condvar wake round trip (13 µs on
  /// a 4-vCPU Xeon host, DESIGN.md §12): a shorter task is done sooner by
  /// the awake worker that already holds it than by a woken one.
  static constexpr double kMinWakeTaskTime = 20e-6;
  /// Maximum POP attempts before giving up (Algorithm 2's MAX_TRIES).
  static constexpr std::size_t kMaxTries = 8;

  explicit MultiPrioScheduler(SchedContext ctx, MultiPrioConfig config = {});

  void push(TaskId t) override;                        // Algorithm 1
  void push_batch(const std::vector<TaskId>& ts) override;
  [[nodiscard]] std::optional<TaskId> pop(WorkerId w) override;  // Algorithm 2

  /// Retry of a popped-but-unfinished task: clears the taken flag, then
  /// re-runs Algorithm 1 — the accounting must match a fresh push exactly.
  void repush(TaskId t) override;

  /// Fail-stop loss handling. When the dead worker was the last of its
  /// memory node, the node's heap is dropped and the entire pending set is
  /// re-pushed against the surviving platform: push-time best-arch verdicts,
  /// gain/NOD scores and best_remaining_work credits all have to be
  /// re-judged, or a task whose best architecture died could be evicted out
  /// of every heap and lost. Tasks with no live capable worker are returned.
  [[nodiscard]] std::vector<TaskId> notify_worker_removed(WorkerId w) override;

  /// Lock-free per the Internal contract: maintain the per-node count of
  /// workers inside a kernel, which the wake rule subtracts to find the
  /// node's scanning workers (those that absorb new work without a wake).
  void on_task_start(TaskId t, WorkerId w) override;
  void on_task_end(TaskId t, WorkerId w) override;

  [[nodiscard]] SchedConcurrency concurrency() const override {
    return SchedConcurrency::Internal;
  }
  [[nodiscard]] std::uint64_t work_epoch(WorkerId w) const override;
  void wait_for_work(WorkerId w, std::uint64_t seen, double timeout_s,
                     const std::function<bool()>& cancel) override;
  void interrupt_waiters() override;

  [[nodiscard]] std::string name() const override { return "multiprio"; }
  [[nodiscard]] std::size_t pending_count() const override {
    return pending_.load();
  }
  [[nodiscard]] bool has_work_hint(WorkerId w) const override {
    return !shards_[ctx_.platform->worker(w).node.index()].heap.empty();
  }

  // --- introspection (tests / ablation benches) ---------------------------

  [[nodiscard]] std::size_t ready_tasks_count(MemNodeId m) const;
  [[nodiscard]] double best_remaining_work(MemNodeId m) const;
  [[nodiscard]] std::size_t eviction_total() const { return evictions_.load(); }
  /// Is `t` currently pushed and not yet popped (invariant checks)?
  [[nodiscard]] bool is_pending(TaskId t) const {
    return t.index() < states_.size() &&
           states_[t.index()].phase.load() == kPending;
  }
  [[nodiscard]] const ScoredHeap& heap(MemNodeId m) const;

  /// Full structural-consistency audit of the scheduler state — the oracle
  /// the interleaving explorer evaluates at every quiescent point, and a
  /// post-run check for tests. Takes every shard lock in ascending order
  /// (uncontended when probing), then verifies in O(pending × nodes):
  ///  - pending_count() == number of Pending tasks, none of them Taken;
  ///  - every pending task sits in ≥ 1 heap, exactly the heaps its record's
  ///    live-node mask names, and its best_remaining_work credits were
  ///    granted on live nodes only (the best heap never evicts);
  ///  - per-node ready counts equal the number of pending tasks holding an
  ///    entry there, and each heap's validate() passes;
  ///  - every heap entry is either pending there or a lazily-dropped stale
  ///    duplicate of a taken task;
  ///  - 0 ≤ best_remaining_work(m) ≤ Σ pending PUSH credits on m (debits
  ///    may legally over-subtract — diversions debit the taker's time and
  ///    the ledger clamps at zero — but never under-subtract).
  /// Returns false and describes the first failure in `*why` (if non-null).
  [[nodiscard]] bool check_invariants(std::string* why = nullptr) const;

#ifdef MP_VERIFY
  /// Quiescence gate for the executor's invariant probes: true when no
  /// managed thread is suspended inside a shard critical section, i.e. the
  /// sharded state is externally consistent and safe to audit.
  [[nodiscard]] bool verify_quiescent() const;
  /// The shard mutexes, so the executor can register a probe on each (their
  /// releases are exactly the moments sharded state becomes visible).
  [[nodiscard]] std::vector<const Mutex*> verify_shard_mutexes() const;
#endif

 private:
  // --- per-task lifecycle ---------------------------------------------------
  // phase is the single atomic commit point: a successful Pending→Taken CAS
  // *is* the take. The live-node mask retires heap-slot ownership bit by bit
  // (eviction clears one bit, take grabs the remainder wholesale); whoever
  // clears a bit owns that node's ready-count decrement, so the counts are
  // maintained exactly once even when evictors race a taker.
  static constexpr std::uint8_t kIdle = 0;     ///< never pushed / rebuilt away
  static constexpr std::uint8_t kPending = 1;  ///< pushed, not yet taken
  static constexpr std::uint8_t kTaken = 2;    ///< popped (or retired)

  /// Push-time state per task: the arch judged fastest at PUSH and the δ
  /// estimates cached then (the pop_condition must use the same verdicts —
  /// live δ estimates can drift during real execution, and a drifting
  /// "best" could evict a task from every heap and lose it), the heaps it
  /// went to, the best-arch nodes whose brw it credited (each by
  /// δ(t, best_arch), reversed at POP), and the task's locality terms (read
  /// by the POP-side window under the shard lock of a heap holding the
  /// entry, which the push that wrote them also held). All of it is
  /// immutable between pushes; `live_mask` (bit = node index) is the mutable
  /// view of which heaps still hold the task as *ready* work.
  struct PushRecord {
    ArchType best_arch = ArchType::CPU;
    std::array<double, kNumArchTypes> delta{};
    std::uint64_t nodes = 0;     ///< node_bit set of the heaps pushed into
    std::uint64_t credited = 0;  ///< node_bit set of the brw credits
    std::vector<LocalityTerm> locality;  // LS_SDH² terms (when locality is on)

    [[nodiscard]] double credit() const { return delta[arch_index(best_arch)]; }
  };
  struct TaskState {
    RelaxedAtomic<std::uint8_t> phase{kIdle};
    RelaxedAtomic<std::uint64_t> live_mask{0};
    PushRecord rec;
  };

  /// A memory node's lock shard: the heap it owns, its condvar for parked
  /// workers, and the push counter the wait protocol is keyed on.
  struct Shard {
    mutable Mutex order_mu;  // shard-lock(asc) — acquire only via the tagged helpers below
    CondVar cv;
    ScoredHeap heap;
    RelaxedAtomic<std::uint64_t> epoch{0};
    /// Workers parked on `cv` right now. Written under order_mu; a pusher
    /// reads it after bumping the epoch under the same lock, so a zero read
    /// proves no waiter predates the new work and the futex can be skipped
    /// (an active worker pops the task on its next loop instead).
    RelaxedAtomic<std::uint32_t> waiters{0};
    /// Workers of this node currently inside a kernel (on_task_start/end
    /// transitions, guarded by the per-worker in-kernel flag). A worker that
    /// is neither parked nor executing is scanning and absorbs new work
    /// without a futex.
    RelaxedAtomic<std::uint32_t> executing{0};
  };

  /// The wake rule's per-node tally for one insert (push side only, which
  /// the engine serializes; sized once at construction, so planning an
  /// insert allocates nothing).
  struct NodeWake {
    std::uint32_t parked = 0;    ///< waiters not yet claimed by a wake
    std::uint32_t capacity = 0;  ///< awake workers not yet claimed by a task
    std::uint32_t wakes = 0;     ///< notify_one calls to send
    bool awake = false;          ///< some worker will scan this heap
  };

  // The ONLY ways scheduler code may acquire shard locks (enforced by
  // tools/lint.sh rule 3): one shard, or a set of shards in ascending node
  // order.
  void lock_shard(std::size_t mi) const;
  /// RAII over a set of shards given as a node_bit set: the ctor locks them
  /// lowest node first (a bit walk is ascending by construction, and a set
  /// cannot repeat a node), the dtor unlocks them highest first.
  class AscendingShardLocks {
   public:
    AscendingShardLocks(const MultiPrioScheduler& s, std::uint64_t shards);
    ~AscendingShardLocks();
    AscendingShardLocks(const AscendingShardLocks&) = delete;
    AscendingShardLocks& operator=(const AscendingShardLocks&) = delete;

   private:
    const MultiPrioScheduler& s_;
    std::uint64_t shards_;
  };
  /// node_bit set of every shard.
  [[nodiscard]] std::uint64_t all_shards() const {
    return num_shards_ == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << num_shards_) - 1;
  }

  /// pop_condition (Section V-D): true when `a` is the best arch for `t`
  /// (as judged at PUSH), or the best arch's workers are busy enough that
  /// diverting `t` helps. `brw_out`, when non-null, receives the
  /// (normalized) best-arch remaining work the verdict compared against
  /// (0 on the best-arch fast path) — the POP_REJECT event payload.
  [[nodiscard]] bool pop_condition(TaskId t, ArchType a, double* brw_out = nullptr) const;

  /// A selected candidate with the decision payload the observer reports.
  struct Candidate {
    HeapEntry entry;
    double locality = 0.0;    ///< LS_SDH²(m, task); 0 when locality is off
    bool window_pick = false; ///< the locality window overrode the heap top
  };

  /// Locality selection (Section V-C): most local candidate among the top-n
  /// entries within ε of the best score; skips already-taken duplicates
  /// (they are removed lazily by the caller beforehand).
  [[nodiscard]] std::optional<Candidate> select_candidate(MemNodeId m);

  /// Drops entries whose task was already taken from another heap.
  void drop_taken(ScoredHeap& heap);

  /// Commit a pop: Pending→Taken CAS, retire ready counts and brw credits,
  /// remove the entry from `from_node`'s heap. Returns false when a racing
  /// taker won the CAS — the caller reselects.
  [[nodiscard]] bool try_take(TaskId t, MemNodeId from_node, ArchType taker);

  /// Algorithm 1 for one task; requires every target shard lock held (the
  /// public entry points take them). `t_now` is the precaptured event
  /// timestamp (one clock read per push/pop, outside any shard lock).
  /// The engine guarantees a live capable node (always-on check).
  void push_locked(TaskId t, double t_now);
  /// Target nodes of one task (node_bit set) = live nodes whose arch can
  /// execute it.
  [[nodiscard]] std::uint64_t target_nodes(TaskId t) const;

  [[nodiscard]] TaskState& state_of(TaskId t);
  [[nodiscard]] static std::uint64_t node_bit(MemNodeId m) {
    return std::uint64_t{1} << m.index();
  }
  /// Range over the nodes of a node_bit set, ascending.
  struct NodeRange {
    struct It {
      std::uint64_t rest;
      MemNodeId operator*() const {
        return MemNodeId{static_cast<std::size_t>(std::countr_zero(rest))};
      }
      It& operator++() {
        rest &= rest - 1;
        return *this;
      }
      bool operator!=(const It& o) const { return rest != o.rest; }
    };
    std::uint64_t bits;
    [[nodiscard]] It begin() const { return It{bits}; }
    [[nodiscard]] It end() const { return It{0}; }
  };
  [[nodiscard]] static NodeRange nodes_in(std::uint64_t bits) { return NodeRange{bits}; }

  MultiPrioConfig cfg_;
  std::unique_ptr<Shard[]> shards_;               // one per memory node
  std::size_t num_shards_ = 0;
  std::vector<RelaxedAtomic<std::int64_t>> ready_count_;  // per node
  std::vector<RelaxedAtomic<double>> brw_;        // best_remaining_work per node
  std::vector<TaskState> states_;                 // per task, sized once
  /// Per-worker in-kernel flag: owned by the worker's own thread (start/end
  /// run on it), it makes the Shard::executing transitions exactly-once even
  /// when a failed attempt skips on_task_end before the next on_task_start.
  std::vector<RelaxedAtomic<std::uint8_t>> in_kernel_;
  GainTracker gain_;
  NodNormalizer nod_;
  RelaxedAtomic<std::size_t> pending_{0};
  RelaxedAtomic<std::size_t> evictions_{0};

  // --- the wake rule (DESIGN.md §12) ---------------------------------------
  /// Plans the wakes an insert of `ts` needs, into wake_. Requires the shard
  /// locks of every node the tasks went to (waiters is exact under them).
  void plan_wakes(std::span<const TaskId> ts);
  /// Sends the planned wakes; call after releasing the shard locks.
  void send_wakes();
  /// Runs `claim(m, arch)` over the nodes holding `t` that would take it
  /// now — best-arch nodes first, then those whose pop_condition passes —
  /// until one claim succeeds; returns whether one did.
  template <typename Claim>
  bool claim_eligible(TaskId t, Claim&& claim) const;
  /// Claims one parked worker of `m` for a wake.
  void claim_wake(MemNodeId m);
  /// A task worth a parallelism wake on arch `a`: calibrated, and at least
  /// kMinWakeTaskTime long.
  [[nodiscard]] bool wake_worthy(TaskId t, ArchType a) const;
  std::vector<NodeWake> wake_;

  // --- observability (all null without an attached observer/metrics) -------
  [[nodiscard]] double obs_time() const { return ctx_.now ? ctx_.now() : 0.0; }
  Counter* m_stale_discards_ = nullptr;   ///< lazily dropped taken duplicates
  Counter* m_window_scans_ = nullptr;     ///< pops that ran the locality window
  Counter* m_window_hits_ = nullptr;      ///< ... where the window changed the pick
  Counter* m_wakeups_ = nullptr;          ///< targeted condvar notifies sent
  Histogram* m_lock_wait_ = nullptr;      ///< contended shard-lock wait time
};

}  // namespace mp
