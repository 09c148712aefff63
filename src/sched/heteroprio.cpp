#include <algorithm>
#include <array>
#include <deque>
#include <vector>

#include "common/check.hpp"
#include "obs/emit.hpp"
#include "sched/schedulers.hpp"

namespace mp {

namespace {

/// Automatic HeteroPrio [3,9]: ready tasks are dispatched to buckets by
/// codelet type. Each architecture consumes the buckets in its own order,
/// derived automatically from the mean GPU speedup of the type: CPUs scan
/// buckets by ascending speedup (take what GPUs gain least from), GPUs by
/// descending speedup. FIFO within a bucket. This is the per-*type*
/// priority scheme whose loss of per-task information motivates MultiPrio.
class HeteroPrioScheduler final : public Scheduler {
 public:
  explicit HeteroPrioScheduler(SchedContext ctx) : Scheduler(std::move(ctx)) {
    const std::size_t n = ctx_.graph->num_codelets();
    buckets_.resize(n);
    stats_.resize(n);
  }

  void push(TaskId t) override {
    const CodeletId c = ctx_.graph->task(t).codelet;
    MP_CHECK(c.index() < buckets_.size());
    buckets_[c.index()].push_back(t);
    ++pending_;

    // Update the running mean speedup of the type from the δ estimates.
    Stats& s = stats_[c.index()];
    const Codelet& cl = ctx_.graph->codelet(c);
    if (cl.can_exec(ArchType::CPU) && live_worker_count(ctx_, ArchType::CPU) > 0) {
      s.add(s.cpu, ctx_.perf->estimate(t, ArchType::CPU));
    }
    if (cl.can_exec(ArchType::GPU) && live_worker_count(ctx_, ArchType::GPU) > 0) {
      s.add(s.gpu, ctx_.perf->estimate(t, ArchType::GPU));
    }
    const ArchType best = best_arch_for(ctx_, t);
    backlog_[arch_index(best)] += ctx_.perf->estimate(t, best);
    if (obs_enabled(ctx_)) {
      SchedEvent e = make_event(ctx_, SchedEventKind::Push, t);
      e.gain = speedup(c.index());  // type-level speedup after this update
      e.best_remaining_work = backlog_[arch_index(best)];
      e.heap_depth = static_cast<std::uint32_t>(buckets_[c.index()].size());
      ctx_.observer->record(e);
    }
  }

  std::optional<TaskId> pop(WorkerId w) override {
    const ArchType a = ctx_.platform->worker(w).arch;
    // Non-empty buckets the worker can serve, in this arch's order.
    order_.clear();
    for (std::size_t c = 0; c < buckets_.size(); ++c) {
      if (buckets_[c].empty()) continue;
      if (!ctx_.graph->codelet(CodeletId{c}).can_exec(a)) continue;
      order_.push_back(c);
    }
    if (order_.empty()) return std::nullopt;
    std::stable_sort(order_.begin(), order_.end(), [&](std::size_t x, std::size_t y) {
      const double sx = speedup(x);
      const double sy = speedup(y);
      return a == ArchType::CPU ? sx < sy : sx > sy;
    });
    for (std::size_t c : order_) {
      auto& bucket = buckets_[c];
      const TaskId t = bucket.front();
      const ArchType best = best_arch_for(ctx_, t);
      if (best != a) {
        // Slowdown guard of HeteroPrio [3,9]: a non-preferred worker takes
        // the task only when the preferred workers have more queued work
        // per worker than this worker needs to run it.
        const double per_worker =
            backlog_[arch_index(best)] /
            static_cast<double>(std::max<std::size_t>(1, live_worker_count(ctx_, best)));
        if (per_worker <= ctx_.perf->estimate(t, a)) continue;
      }
      bucket.pop_front();
      --pending_;
      double& b = backlog_[arch_index(best)];
      b -= ctx_.perf->estimate(t, a);  // over-debit on steals throttles them
      if (b < 0.0) b = 0.0;
      if (obs_enabled(ctx_)) {
        SchedEvent e = make_event(ctx_, SchedEventKind::Pop, t);
        e.worker = w;
        e.node = ctx_.platform->worker(w).node;
        e.gain = speedup(c);
        e.best_remaining_work = b;
        e.heap_depth = static_cast<std::uint32_t>(bucket.size());
        ctx_.observer->record(e);
      }
      return t;
    }
    return std::nullopt;
  }

  std::vector<TaskId> notify_worker_removed(WorkerId /*w*/) override {
    // Buckets are arch-agnostic, so surviving workers keep consuming them;
    // only tasks with no live capable worker must leave. A fully dead
    // architecture also surrenders its backlog — the slowdown guard must not
    // keep steering work toward capacity that no longer exists.
    std::vector<TaskId> orphans;
    for (auto& bucket : buckets_) {
      for (auto it = bucket.begin(); it != bucket.end();) {
        if (!task_has_live_worker(ctx_, *it)) {
          orphans.push_back(*it);
          --pending_;
          it = bucket.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (std::size_t ai = 0; ai < kNumArchTypes; ++ai) {
      if (live_worker_count(ctx_, static_cast<ArchType>(ai)) == 0) backlog_[ai] = 0.0;
    }
    return orphans;
  }

  [[nodiscard]] std::string name() const override { return "heteroprio"; }
  [[nodiscard]] std::size_t pending_count() const override { return pending_; }
  [[nodiscard]] bool has_work_hint(WorkerId w) const override {
    return arch_has_work(ctx_.platform->worker(w).arch);
  }
  /// A node hosts workers of one arch, so its hint is that arch's.
  [[nodiscard]] bool node_has_work_hint(MemNodeId m) const override {
    return !ctx_.platform->workers_of_node(m).empty() &&
           arch_has_work(ctx_.platform->node_arch(m));
  }

 private:
  [[nodiscard]] bool arch_has_work(ArchType a) const {
    for (std::size_t c = 0; c < buckets_.size(); ++c)
      if (!buckets_[c].empty() && ctx_.graph->codelet(CodeletId{c}).can_exec(a))
        return true;
    return false;
  }

  struct Mean {
    double sum = 0.0;
    std::size_t count = 0;
    [[nodiscard]] double value() const { return count ? sum / static_cast<double>(count) : 0.0; }
  };
  struct Stats {
    Mean cpu, gpu;
    static void add(Mean& m, double v) {
      m.sum += v;
      ++m.count;
    }
  };

  /// Mean GPU speedup of a codelet type: δ_cpu/δ_gpu; 0 for CPU-only types
  /// (CPUs grab them first, GPUs last), +inf-ish for GPU-only types.
  [[nodiscard]] double speedup(std::size_t c) const {
    const Stats& s = stats_[c];
    if (s.gpu.count == 0) return 0.0;
    if (s.cpu.count == 0) return 1e30;
    const double g = s.gpu.value();
    return g > 0.0 ? s.cpu.value() / g : 1e30;
  }

  std::vector<std::deque<TaskId>> buckets_;
  std::vector<std::size_t> order_;  // pop's scratch, reused
  std::vector<Stats> stats_;
  std::array<double, kNumArchTypes> backlog_{};  // queued work per best arch
  std::size_t pending_ = 0;
};

}  // namespace

std::unique_ptr<Scheduler> make_heteroprio(SchedContext ctx) {
  return std::make_unique<HeteroPrioScheduler>(std::move(ctx));
}

}  // namespace mp
