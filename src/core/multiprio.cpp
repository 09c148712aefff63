#include "core/multiprio.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <sstream>

#include "common/check.hpp"
#include "obs/observer.hpp"
#include "verify/mutation.hpp"
#include "verify/sync.hpp"

namespace mp {

MultiPrioScheduler::MultiPrioScheduler(SchedContext ctx, MultiPrioConfig config)
    : Scheduler(std::move(ctx)), cfg_(config), nod_(*ctx_.graph) {
  const std::size_t n_nodes = ctx_.platform->num_nodes();
  MP_CHECK_MSG(n_nodes <= 64,
               "PushRecord::live_mask is a uint64 bitmask (max 64 memory nodes)");
  num_shards_ = n_nodes;
  shards_ = std::make_unique<Shard[]>(n_nodes);
  ready_count_ = std::vector<RelaxedAtomic<std::int64_t>>(n_nodes);
  brw_ = std::vector<RelaxedAtomic<double>>(n_nodes);
  // Sized once from the finished graph and never reallocated, so pops
  // dereference entries under their own shard lock only.
  states_ = std::vector<TaskState>(ctx_.graph->num_tasks());
  for (std::size_t mi = 0; mi < n_nodes; ++mi)
    shards_[mi].heap = ScoredHeap(ctx_.graph->num_tasks(), cfg_.locality_n);
  in_kernel_ = std::vector<RelaxedAtomic<std::uint8_t>>(ctx_.platform->num_workers());
  wake_.resize(n_nodes);
  // Resolve instrument names once; the hot paths then pay one null test.
  if (MetricsRegistry* mx = ctx_.observer ? ctx_.observer->metrics() : nullptr) {
    m_stale_discards_ = &mx->counter("multiprio.stale_discards");
    m_window_scans_ = &mx->counter("multiprio.locality_window_scans");
    m_window_hits_ = &mx->counter("multiprio.locality_window_hits");
    m_wakeups_ = &mx->counter("sched.wakeups");
    m_lock_wait_ = &mx->histogram("sched.lock_wait_s");
  }
}

// --- shard-lock discipline ---------------------------------------------------
// tools/lint.sh rule 3: every mention of a shard mutex carries the
// `shard-lock(asc)` tag, and multi-shard acquisition happens only through
// AscendingShardLocks, which walks its node_bit set lowest node first — so
// src/core/ can never take two node locks out of ascending order.

void MultiPrioScheduler::lock_shard(std::size_t mi) const {
  Mutex& mu = shards_[mi].order_mu;  // shard-lock(asc)
  if (m_lock_wait_ == nullptr) {
    mu.lock();
    return;
  }
  // Contention-visible path: an uncontended acquire records a zero so the
  // histogram's count doubles as an acquisition counter.
  if (mu.try_lock()) {
    m_lock_wait_->observe(0.0);
    return;
  }
  const double t0 = sync_now_seconds();
  mu.lock();
  m_lock_wait_->observe(std::max(0.0, sync_now_seconds() - t0));
}

MultiPrioScheduler::AscendingShardLocks::AscendingShardLocks(const MultiPrioScheduler& s,
                                                             std::uint64_t shards)
    : s_(s), shards_(shards) {
  MP_CHECK_MSG((shards_ & ~s_.all_shards()) == 0, "locking a shard that does not exist");
  for (std::uint64_t rest = shards_; rest != 0; rest &= rest - 1)
    s_.lock_shard(static_cast<std::size_t>(std::countr_zero(rest)));  // lowest first
}

MultiPrioScheduler::AscendingShardLocks::~AscendingShardLocks() {
  for (std::uint64_t rest = shards_; rest != 0;) {
    const int mi = 63 - std::countl_zero(rest);  // highest first
    s_.shards_[mi].order_mu.unlock();  // shard-lock(asc)
    rest &= ~(std::uint64_t{1} << mi);
  }
}

MultiPrioScheduler::TaskState& MultiPrioScheduler::state_of(TaskId t) {
  MP_CHECK_MSG(t.index() < states_.size(),
               "task id outside the graph the scheduler was built for");
  return states_[t.index()];
}

// --- the wake rule -------------------------------------------------------------
// One rule for every insert (push, push_batch, repush, the worker-removal
// rebuild), planned under the shard locks and sent after them:
//  - counting: per node, the workers that are neither parked nor inside a
//    kernel are scanning; each absorbs one eligible task of the insert;
//  - progress, never gated: a task none of whose best-arch heaps has a
//    scanning worker wakes one parked worker there. Best heaps never evict,
//    so every pushed task reaches an awake best-arch worker;
//  - parallelism, gated: any further task wakes one more parked worker only
//    when its calibrated δ on that node's arch is at least kMinWakeTaskTime.
// Lost-wakeup-free: waiters is exact under the shard locks, the epoch moved
// under them, so a worker missing from the count either saw the new epoch
// (and will not park) or has yet to run its failed pop.

template <typename Claim>
bool MultiPrioScheduler::claim_eligible(TaskId t, Claim&& claim) const {
  const PushRecord& rec = states_[t.index()].rec;
  for (const bool best_pass : {true, false}) {
    for (const MemNodeId m : nodes_in(rec.nodes)) {
      const ArchType a = ctx_.platform->node_arch(m);
      if ((a == rec.best_arch) != best_pass) continue;
      if (!best_pass && !pop_condition(t, a)) continue;
      if (claim(m, a)) return true;
    }
  }
  return false;
}

void MultiPrioScheduler::plan_wakes(std::span<const TaskId> ts) {
  bool any_parked = false;
  for (std::size_t mi = 0; mi < num_shards_; ++mi) {
    wake_[mi].parked = shards_[mi].waiters.load();
    any_parked = any_parked || wake_[mi].parked > 0;
  }
  if (!any_parked) return;  // the common case: no task is even looked at
  for (std::size_t mi = 0; mi < num_shards_; ++mi) {
    NodeWake& nw = wake_[mi];
    const std::size_t live = live_workers_of_node(ctx_, MemNodeId{mi});
    const std::size_t busy = nw.parked + shards_[mi].executing.load();
    nw.capacity = live > busy ? static_cast<std::uint32_t>(live - busy) : 0;
    nw.awake = nw.capacity > 0;
  }
  for (TaskId t : ts) {
    const TaskState& st = states_[t.index()];
    MP_ASSERT(st.phase.load() == kPending);
    // Progress: make sure a worker will scan one of the task's best heaps.
    const PushRecord& rec = st.rec;
    bool best_awake = false;
    std::optional<MemNodeId> best_parked;
    for (const MemNodeId m : nodes_in(rec.nodes)) {
      if (ctx_.platform->node_arch(m) != rec.best_arch) continue;
      best_awake = best_awake || wake_[m.index()].awake;
      if (!best_parked && wake_[m.index()].parked > 0) best_parked = m;
    }
    if (!best_awake && best_parked) {
      claim_wake(*best_parked);
      ++wake_[best_parked->index()].capacity;  // the woken worker absorbs `t` below
    }
    // Counting: an awake worker absorbs the task...
    const bool absorbed = claim_eligible(t, [&](MemNodeId m, ArchType) {
      if (wake_[m.index()].capacity == 0) return false;
      --wake_[m.index()].capacity;
      return true;
    });
    if (absorbed) continue;
    // ... else parallelism, gated: wake one more worker if the task pays.
    (void)claim_eligible(t, [&](MemNodeId m, ArchType a) {
      if (wake_[m.index()].parked == 0 || !wake_worthy(t, a)) return false;
      claim_wake(m);
      return true;
    });
  }
}

void MultiPrioScheduler::claim_wake(MemNodeId m) {
  NodeWake& nw = wake_[m.index()];
  --nw.parked;
  ++nw.wakes;
  nw.awake = true;
}

bool MultiPrioScheduler::wake_worthy(TaskId t, ArchType a) const {
  // Only a calibrated δ counts: the default-rate priors of unmeasured
  // buckets can be orders of magnitude off. The lookup is safe here: every
  // caller holds the engine's push-side lock, which serializes
  // HistoryModel::record.
  return states_[t.index()].rec.delta[arch_index(a)] >= kMinWakeTaskTime &&
         ctx_.perf != nullptr && ctx_.perf->is_calibrated(t, a);
}

void MultiPrioScheduler::send_wakes() {
  for (std::size_t mi = 0; mi < num_shards_; ++mi) {
    NodeWake& nw = wake_[mi];
    if (nw.wakes == 0) continue;
    for (std::uint32_t k = 0; k < nw.wakes; ++k) shards_[mi].cv.notify_one();
    if (m_wakeups_ != nullptr) m_wakeups_->inc(nw.wakes);
    nw.wakes = 0;
  }
}

std::uint64_t MultiPrioScheduler::target_nodes(TaskId t) const {
  std::uint64_t targets = 0;
  for (std::size_t mi = 0; mi < num_shards_; ++mi) {
    const MemNodeId m{mi};
    if (live_workers_of_node(ctx_, m) == 0) continue;
    if (!ctx_.graph->can_exec(t, ctx_.platform->node_arch(m))) continue;
    targets |= node_bit(m);
  }
  return targets;
}

void MultiPrioScheduler::push_locked(TaskId t, double t_now) {
  TaskState& st = state_of(t);
  MP_CHECK_MSG(st.phase.load() != kPending, "push of an already-pending task");
  MP_ASSERT(st.phase.load() != kTaken);  // repush resets to Idle first

  // Both engines flip liveness and screen released tasks under their
  // push-side serialization, so a pushed task always has a live capable
  // node; an empty target set is an engine bug.
  const std::uint64_t targets = target_nodes(t);
  MP_CHECK_MSG(targets != 0, "pushed task has no live capable memory node");

  PushRecord& rec = st.rec;
  rec.nodes = 0;
  rec.credited = 0;
  if (cfg_.use_locality) locality_terms(*ctx_.graph, t, rec.locality);
  // Resolve δ(t,a) once per push: the best-arch verdict, the gain scores,
  // the pop_condition and the take debit all judge against these estimates
  // (live estimates drift as the history model re-trains, and a drifting
  // "best" could evict a task from every heap). Reading them from the record
  // keeps the POP path off the HistoryModel entirely — pops run under only
  // their own shard lock, pushes are serialized by the engine.
  const ArchMask enabled = enabled_archs(ctx_, t);
  for (std::size_t ai = 0; ai < kNumArchTypes; ++ai) {
    const auto a = static_cast<ArchType>(ai);
    rec.delta[ai] = arch_in(enabled, a) ? ctx_.perf->estimate(t, a) : 0.0;
  }
  const std::optional<ArchType> fastest = fastest_arch(enabled, rec.delta);
  MP_CHECK_MSG(fastest.has_value(), "task has no enabled architecture");
  const ArchType best = *fastest;
  rec.best_arch = best;

  // Algorithm 1: insert into the heap of every memory node whose (live)
  // workers can execute the task, with the (gain, criticality) scores.
  for (const MemNodeId m : nodes_in(targets)) {
    const std::size_t mi = m.index();
    const ArchType a = ctx_.platform->node_arch(m);
    MP_ASSERT(live_worker_count(ctx_, a) > 0);

    const double gain = gain_.gain(enabled, rec.delta, a);
    const double prio = cfg_.use_nod ? nod_.normalized(ctx_, t, m) : 0.0;
    Shard& sh = shards_[mi];
    sh.heap.insert(t, gain, prio);
    ready_count_[mi].fetch_add(1);
    rec.nodes |= node_bit(m);
    sh.epoch.fetch_add(1);  // wait_for_work predicate sees the insert

    if (a == best) {  // the paper's normalized_speedup(t,a) == 1
      brw_[mi].add(rec.credit());
      rec.credited |= node_bit(m);
    }

    if (ctx_.observer != nullptr) {
      SchedEvent e;
      e.time = t_now;
      e.kind = SchedEventKind::Push;
      e.task = t;
      e.node = m;
      e.gain = gain;
      e.prio = prio;
      e.best_remaining_work = brw_[mi].load();
      e.heap_depth = static_cast<std::uint32_t>(sh.heap.size());
      ctx_.observer->record(e);
    }
  }
  MP_CHECK_MSG(rec.nodes != 0, "non-empty target set produced an empty live mask");
  st.live_mask.store(rec.nodes);
  st.phase.store(kPending);
  pending_.fetch_add(1);
}

void MultiPrioScheduler::push(TaskId t) {
  verify_point("multiprio.push", this);
  MP_CHECK_MSG(t.index() < states_.size(),
               "task id outside the graph the scheduler was built for");
  const double t_now = ctx_.observer != nullptr ? obs_time() : 0.0;
  {
    AscendingShardLocks locks(*this, target_nodes(t));
    push_locked(t, t_now);
    plan_wakes({&t, 1});
  }
  send_wakes();
}

void MultiPrioScheduler::push_batch(const std::vector<TaskId>& ts) {
  if (ts.empty()) return;
  verify_point("multiprio.push_batch", this);
  MP_CHECK(num_shards_ > 0);
  const double t_now = ctx_.observer != nullptr ? obs_time() : 0.0;
  // One grouped acquisition: the union of every task's target shards, taken
  // once in ascending order, then every insert — a completion that releases
  // k tasks costs one lock round instead of k.
  std::uint64_t union_targets = 0;
  for (TaskId t : ts) union_targets |= target_nodes(t);
  {
    AscendingShardLocks locks(*this, union_targets);
    for (TaskId t : ts) push_locked(t, t_now);
    // Planned once the whole batch is in: late pushes raise the brw ledger
    // and can make earlier tasks diversion-eligible.
    plan_wakes(ts);
  }
  send_wakes();
}

bool MultiPrioScheduler::pop_condition(TaskId t, ArchType a, double* brw_out) const {
  MP_CHECK(t.index() < states_.size());
  const TaskState& st = states_[t.index()];
  // Always-on: under a skipped-lock mutation a racing rebuild can have
  // retired `t` between candidate selection and this judgement.
  MP_CHECK_MSG(st.phase.load() != kIdle, "pop_condition on a task with no push record");
  const ArchType best = st.rec.best_arch;
  if (a == best) return true;
  double brw_best = 0.0;
  for (MemNodeId m : ctx_.platform->nodes_of_arch(best))
    brw_best += brw_[m.index()].load();
  if (cfg_.normalize_brw_by_workers) {
    brw_best /= static_cast<double>(std::max<std::size_t>(1, live_worker_count(ctx_, best)));
  }
  if (brw_out != nullptr) *brw_out = brw_best;
  // The best workers hold more queued best-affinity work than it would cost
  // this slower worker to run the task: diverting it keeps the DAG moving.
  return brw_best > st.rec.delta[arch_index(a)];
}

void MultiPrioScheduler::drop_taken(ScoredHeap& heap) {
  while (auto top = heap.top()) {
    if (states_[top->task.index()].phase.load() != kTaken) return;
    heap.pop_top();
    if (m_stale_discards_ != nullptr) m_stale_discards_->inc();
  }
}

std::optional<MultiPrioScheduler::Candidate> MultiPrioScheduler::select_candidate(
    MemNodeId m) {
  ScoredHeap& heap = shards_[m.index()].heap;
  drop_taken(heap);
  if (heap.empty()) return std::nullopt;
  const HeapEntry top = *heap.top();
  if (!cfg_.use_locality) return Candidate{top, 0.0, false};

  // Most-local task among the first n entries whose gain score is within ε
  // of the top task's score. Taken duplicates inside the window are skipped
  // (the top itself is known live after drop_taken). The heap's front holds
  // at least n entries, so the window is its prefix.
  HeapEntry best_entry = top;
  double best_local = -1.0;
  const std::span<const HeapEntry> front = heap.front();
  for (const HeapEntry& e : front.first(std::min(front.size(), cfg_.locality_n))) {
    if (e.gain < top.gain - cfg_.epsilon) break;
    const TaskState& st = states_[e.task.index()];
    if (st.phase.load() == kTaken) continue;
    const double local = ls_sdh2(*ctx_.memory, m, st.rec.locality);
    if (local > best_local) {
      best_local = local;
      best_entry = e;
    }
  }
  return Candidate{best_entry, std::max(0.0, best_local),
                   best_entry.task != top.task};
}

bool MultiPrioScheduler::try_take(TaskId t, MemNodeId from_node, ArchType taker) {
  verify_point("multiprio.take", this);
  TaskState& st = state_of(t);
  // The single atomic commit point of a pop: whoever flips Pending→Taken
  // owns the task; every other accounting step below is made exactly-once
  // by the live-mask bits.
  std::uint8_t expect = kPending;
  if (!st.phase.compare_exchange(expect, kTaken)) {
    // Always-on: only a racing *taker* may win the commit; any other phase
    // here means a rebuild ran concurrently with this pop (skipped lock).
    MP_CHECK_MSG(expect == kTaken, "take lost its commit race to a non-take");
    return false;  // candidate went stale under us; the caller reselects
  }
  const PushRecord& rec = st.rec;
  // Grab every still-live duplicate slot wholesale; racing evictors that
  // already cleared their bit have retired their own node's ready count.
  const std::uint64_t mask = st.live_mask.exchange(0);
  for (const MemNodeId m : nodes_in(rec.nodes & mask)) {
    const std::int64_t prev = ready_count_[m.index()].fetch_sub(1);
    MP_CHECK_MSG(prev > 0, "per-node ready count underflow on take");
  }
  // Algorithm 2 debits best_remaining_work by δ(t, w_a) — the *taking*
  // worker's time (as judged at PUSH). For a best-arch pop this reverses the
  // PUSH credit; for a diversion it debits more, throttling cascades of
  // slow-worker steals. Seeded mutation SkipBrwDecrement leaves the ledger
  // uncorrected — the explorer's brw upper-bound invariant must flag it
  // (constant-false outside MP_VERIFY builds).
  const bool diverted = taker != rec.best_arch;
  const double debit = diverted ? rec.delta[arch_index(taker)] : 0.0;
  if (!verify::mutation_active(verify::Mutation::SkipBrwDecrement)) {
    const double credited = rec.credit();
    for (const MemNodeId m : nodes_in(rec.credited))
      brw_[m.index()].sub_clamped(diverted ? std::max(debit, credited) : credited);
  }
  const std::size_t prev_pending = pending_.fetch_sub(1);
  MP_CHECK_MSG(prev_pending > 0, "pending count underflow on take");
  // Last: remove the popped entry from this node's heap. Under correct
  // locking we hold from_node's shard lock and the entry is present; under
  // a skipped-lock mutation a racing sweeper may have removed it first —
  // ScoredHeap::remove's own always-on presence check is the oracle then.
  shards_[from_node.index()].heap.remove(t);
  return true;
}

std::optional<TaskId> MultiPrioScheduler::pop(WorkerId w) {
  verify_point("multiprio.pop", this);
  MP_CHECK(w.index() < ctx_.platform->num_workers());
  const Worker& worker = ctx_.platform->worker(w);
  const MemNodeId m = worker.node;
  const ArchType a = worker.arch;
  // One clock read per pop, before the shard lock: observer timestamps must
  // not lengthen the critical section.
  const double t_now = ctx_.observer != nullptr ? obs_time() : 0.0;

  // Seeded mutation SkipNodeLock: run the whole POP path without this
  // node's shard lock, so same-node workers (and a locked PUSH) interleave
  // inside candidate selection / eviction / take. Constant-false outside
  // MP_VERIFY builds.
  const bool skip_lock = verify::mutation_active(verify::Mutation::SkipNodeLock);
  if (!skip_lock) lock_shard(m.index());
  std::optional<TaskId> out;
  for (std::size_t tries = 0; tries <= kMaxTries; ++tries) {
    const std::optional<Candidate> cand = select_candidate(m);
    if (!cand) break;
    const TaskId t = cand->entry.task;
    verify_point("multiprio.pop.candidate", this);
    double brw_judged = 0.0;
    if (!cfg_.use_eviction || pop_condition(t, a, &brw_judged)) {
      if (!try_take(t, m, a)) continue;  // lost the commit race; reselect
      if (ctx_.observer != nullptr) {
        if (cfg_.use_locality && m_window_scans_ != nullptr) {
          m_window_scans_->inc();
          if (cand->window_pick) m_window_hits_->inc();
        }
        SchedEvent e;
        e.time = t_now;
        e.kind = SchedEventKind::Pop;
        e.task = t;
        e.worker = w;
        e.node = m;
        e.gain = cand->entry.gain;
        e.prio = cand->entry.prio;
        e.locality = cand->locality;
        e.best_remaining_work = brw_[m.index()].load();
        e.heap_depth = static_cast<std::uint32_t>(shards_[m.index()].heap.size());
        e.attempt = static_cast<std::uint32_t>(tries);
        ctx_.observer->record(e);
      }
      out = t;
      break;
    }
    // Eviction mechanism: remove the task from this node's heap only; its
    // duplicates in the best architecture's heaps keep it schedulable (the
    // pop_condition is always true there, so the best heap never evicts).
    TaskState& st = state_of(t);
    MP_ASSERT(a != st.rec.best_arch);
    const std::uint64_t bit = node_bit(m);
    const std::uint64_t prev = st.live_mask.fetch_and(~bit);
    if ((prev & bit) == 0) {
      // A take on another shard retired this slot between the verdict and
      // the bit-clear: the entry is a stale duplicate now, not an eviction.
      shards_[m.index()].heap.remove(t);
      if (m_stale_discards_ != nullptr) m_stale_discards_->inc();
      continue;
    }
    const std::int64_t prev_rc = ready_count_[m.index()].fetch_sub(1);
    MP_CHECK_MSG(prev_rc > 0, "per-node ready count underflow on evict");
    evictions_.fetch_add(1);
    // Heap removal before the events so heap_depth reports the post-evict
    // depth.
    shards_[m.index()].heap.remove(t);
    if (ctx_.observer != nullptr) {
      SchedEvent e;
      e.time = t_now;
      e.kind = SchedEventKind::PopReject;
      e.task = t;
      e.worker = w;
      e.node = m;
      e.gain = cand->entry.gain;
      e.prio = cand->entry.prio;
      e.locality = cand->locality;
      e.best_remaining_work = brw_judged;  // the backlog the verdict read
      e.heap_depth = static_cast<std::uint32_t>(shards_[m.index()].heap.size());
      e.attempt = static_cast<std::uint32_t>(tries);
      ctx_.observer->record(e);
      e.kind = SchedEventKind::Evict;  // same payload, heap-removal view
      ctx_.observer->record(e);
    }
  }
  if (!skip_lock) shards_[m.index()].order_mu.unlock();  // shard-lock(asc)
  return out;
}

void MultiPrioScheduler::repush(TaskId t) {
  verify_point("multiprio.repush", this);
  MP_CHECK_MSG(t.index() < states_.size() &&
                   states_[t.index()].phase.load() == kTaken,
               "repush of a task that was never popped");
  const double t_now = ctx_.observer != nullptr ? obs_time() : 0.0;
  {
    // All shards, not just the new targets: take() removed the task only
    // from the heap it was popped from, so lazy stale duplicates may sit in
    // any heap. Flush them so push starts from a clean slate, as on first
    // push. Their ready counts were already retired when the task was taken
    // — stale entries are not ready work.
    AscendingShardLocks locks(*this, all_shards());
    for (std::size_t mi = 0; mi < num_shards_; ++mi)
      if (shards_[mi].heap.contains(t)) shards_[mi].heap.remove(t);
    states_[t.index()].phase.store(kIdle);
    states_[t.index()].live_mask.store(0);
    push_locked(t, t_now);
    plan_wakes({&t, 1});
  }
  send_wakes();
}

std::vector<TaskId> MultiPrioScheduler::notify_worker_removed(WorkerId w) {
  verify_point("multiprio.notify_worker_removed", this);
  MP_CHECK_MSG(w.index() < ctx_.platform->num_workers(),
               "worker-removed notification for an unknown worker");
  const MemNodeId dead = ctx_.platform->worker(w).node;
  // The dead worker's in-kernel flag never gets an on_task_end (its task is
  // drained and repushed by the engine); retire its executing slot so the
  // wake heuristic doesn't count a ghost absorber forever.
  if (in_kernel_[w.index()].exchange(0) == 1) shards_[dead.index()].executing.fetch_sub(1);
  // Stream loss: the node still has live workers, heaps and ledgers stand
  // (the pop_condition already normalizes by the live worker count).
  if (live_workers_of_node(ctx_, dead) > 0) return {};

  const double t_now = ctx_.observer != nullptr ? obs_time() : 0.0;
  std::vector<TaskId> orphans;
  {
    AscendingShardLocks locks(*this, all_shards());
    std::vector<TaskId> survivors;
    // Index order — deterministic rebuild (heap-sequence tiebreaks included).
    for (std::size_t i = 0; i < states_.size(); ++i) {
      if (states_[i].phase.load() != kPending) continue;
      const TaskId t{i};
      (task_has_live_worker(ctx_, t) ? survivors : orphans).push_back(t);
    }

    for (std::size_t mi = 0; mi < num_shards_; ++mi) {
      shards_[mi].heap.clear();
      ready_count_[mi].store(0);
      brw_[mi].store(0.0);
    }
    for (TaskId t : survivors) {
      states_[t.index()].phase.store(kIdle);
      states_[t.index()].live_mask.store(0);
    }
    for (TaskId t : orphans) {
      states_[t.index()].phase.store(kIdle);
      states_[t.index()].live_mask.store(0);
    }
    pending_.store(0);
    // The normalization trackers restart so scores reflect the shrunken
    // platform rather than contrasts measured against dead architectures.
    gain_.reset();
    nod_.reset();
    for (TaskId t : survivors) push_locked(t, t_now);
    plan_wakes(survivors);
    std::sort(orphans.begin(), orphans.end());  // deterministic surrender order
  }
  send_wakes();
  return orphans;
}

void MultiPrioScheduler::on_task_start(TaskId /*t*/, WorkerId w) {
  MP_CHECK_MSG(w.index() < in_kernel_.size(), "task start for an unknown worker");
  // The flag makes the counter transition exactly-once: after a failed
  // attempt the engine skips on_task_end, so the flag may still be set here
  // (the worker counted as executing while it retried — a safe over-count
  // that only errs toward waking a parked sibling).
  if (in_kernel_[w.index()].exchange(1) == 0)
    shards_[ctx_.platform->worker(w).node.index()].executing.fetch_add(1);
}

void MultiPrioScheduler::on_task_end(TaskId /*t*/, WorkerId w) {
  MP_CHECK_MSG(w.index() < in_kernel_.size(), "task end for an unknown worker");
  if (in_kernel_[w.index()].exchange(0) == 1)
    shards_[ctx_.platform->worker(w).node.index()].executing.fetch_sub(1);
}

std::uint64_t MultiPrioScheduler::work_epoch(WorkerId w) const {
  return shards_[ctx_.platform->worker(w).node.index()].epoch.load();
}

void MultiPrioScheduler::wait_for_work(WorkerId w, std::uint64_t seen,
                                       double timeout_s,
                                       const std::function<bool()>& cancel) {
  MP_CHECK(w.index() < ctx_.platform->num_workers());
  Shard& sh = shards_[ctx_.platform->worker(w).node.index()];
  std::unique_lock<Mutex> lk(sh.order_mu);  // shard-lock(asc)
  // Lost-wakeup-free: `seen` was read before the caller's failed pop, the
  // epoch is bumped under this lock by every insert, and the predicate is
  // re-evaluated under the lock. The timeout is the engine's anti-hang
  // bound; spurious returns just cost one retried pop. The waiter count
  // bracketing the wait (under the lock) is what the wake rule counts.
  sh.waiters.fetch_add(1);
  (void)sh.cv.wait_for(lk, std::chrono::duration<double>(timeout_s), [&] {
    return cancel() || sh.epoch.load() != seen;
  });
  sh.waiters.fetch_sub(1);
}

void MultiPrioScheduler::interrupt_waiters() {
  MP_CHECK(num_shards_ > 0);
  // Under each shard lock, one at a time: the engine state this interrupt
  // announces (run finished, tasks abandoned) is read by the cancel
  // predicate, so an unlocked notify could slip between a waiter's
  // predicate check and its wait and leave it parked until the timeout.
  for (std::size_t mi = 0; mi < num_shards_; ++mi) {
    lock_shard(mi);
    shards_[mi].cv.notify_all();
    shards_[mi].order_mu.unlock();  // shard-lock(asc)
  }
  if (m_wakeups_ != nullptr) m_wakeups_->inc();
}

std::size_t MultiPrioScheduler::ready_tasks_count(MemNodeId m) const {
  MP_CHECK(m.index() < ready_count_.size());
  return static_cast<std::size_t>(std::max<std::int64_t>(0, ready_count_[m.index()].load()));
}

double MultiPrioScheduler::best_remaining_work(MemNodeId m) const {
  MP_CHECK(m.index() < brw_.size());
  return brw_[m.index()].load();
}

const ScoredHeap& MultiPrioScheduler::heap(MemNodeId m) const {
  MP_CHECK(m.index() < num_shards_);
  return shards_[m.index()].heap;
}

#ifdef MP_VERIFY
bool MultiPrioScheduler::verify_quiescent() const {
  for (std::size_t mi = 0; mi < num_shards_; ++mi)
    if (verify::mutex_is_held(shards_[mi].order_mu)) return false;  // shard-lock(asc)
  return true;
}

std::vector<const Mutex*> MultiPrioScheduler::verify_shard_mutexes() const {
  std::vector<const Mutex*> out;
  out.reserve(num_shards_);
  for (std::size_t mi = 0; mi < num_shards_; ++mi)
    out.push_back(&shards_[mi].order_mu);  // shard-lock(asc)
  return out;
}
#endif

bool MultiPrioScheduler::check_invariants(std::string* why) const {
  auto fail = [why](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  // Quiescent audit: take every shard lock in ascending order (uncontended
  // passthrough locks inside an explorer probe, which only runs once
  // verify_quiescent() said nobody holds a shard).
  AscendingShardLocks locks(*this, all_shards());
  const std::size_t n_nodes = num_shards_;

  std::size_t n_pending = 0;
  std::vector<std::int64_t> expect_ready(n_nodes, 0);
  std::vector<double> credit_sum(n_nodes, 0.0);
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const TaskState& st = states_[i];
    if (st.phase.load() != kPending) continue;
    ++n_pending;
    const std::string tag = "task " + std::to_string(i);
    const std::uint64_t mask = st.live_mask.load();
    if (mask == 0) return fail(tag + " is pending but sits in no heap");
    const std::uint64_t nodes_mask = st.rec.nodes;
    for (const MemNodeId m : nodes_in(nodes_mask)) {
      if (m.index() >= n_nodes) return fail(tag + " records an unknown node");
      if ((mask & node_bit(m)) == 0) continue;  // evicted slot, retired
      if (!shards_[m.index()].heap.contains(TaskId{i}))
        return fail(tag + " records node " + std::to_string(m.value()) +
                    " but that heap lacks it");
      ++expect_ready[m.index()];
    }
    if ((mask & ~nodes_mask) != 0)
      return fail(tag + " live mask names a node outside its push set");
    for (const MemNodeId m : nodes_in(st.rec.credited)) {
      if (m.index() >= n_nodes || (mask & node_bit(m)) == 0)
        return fail(tag + " holds a best-arch credit on node " +
                    std::to_string(m.value()) +
                    " it no longer occupies (best heap must never evict)");
      credit_sum[m.index()] += st.rec.credit();
    }
  }
  if (pending_.load() != n_pending)
    return fail("pending_count " + std::to_string(pending_.load()) + " != " +
                std::to_string(n_pending) + " tasks in Pending phase");

  for (std::size_t mi = 0; mi < n_nodes; ++mi) {
    const std::string node = "node " + std::to_string(mi);
    const ScoredHeap& h = shards_[mi].heap;
    if (!h.validate()) return fail(node + " heap corrupt");
    if (ready_count_[mi].load() != expect_ready[mi])
      return fail(node + " ready_count " +
                  std::to_string(ready_count_[mi].load()) + " != " +
                  std::to_string(expect_ready[mi]) + " pending entries");
    std::optional<TaskId> bad;
    h.for_each([&](const HeapEntry& e) {
      const TaskState& st = states_[e.task.index()];
      const std::uint8_t phase = st.phase.load();
      const bool stale = phase == kTaken;
      const bool live = phase == kPending &&
                        (st.live_mask.load() & node_bit(MemNodeId{mi})) != 0;
      if (stale == live && !bad) bad = e.task;  // exactly one must hold
    });
    if (bad)
      return fail(node + " heap entry for task " + std::to_string(bad->value()) +
                  " is neither a pending entry nor a stale taken duplicate");
    // Debits may legally exceed credits (diversion debits the taker's time,
    // the ledger clamps at zero) but never fall short: the ledger can only
    // sit at or below the credits still outstanding.
    const double tol = 1e-9 * (1.0 + credit_sum[mi]);
    const double ledger = brw_[mi].load();
    if (!(ledger >= 0.0) || !(ledger <= credit_sum[mi] + tol)) {
      std::ostringstream os;
      os << node << " best_remaining_work " << ledger
         << " outside [0, " << credit_sum[mi] << "] pending-credit bound";
      return fail(os.str());
    }
  }
  return true;
}

}  // namespace mp
