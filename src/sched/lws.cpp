#include <deque>
#include <vector>

#include "common/check.hpp"
#include "obs/emit.hpp"
#include "sched/schedulers.hpp"

namespace mp {

namespace {

/// Locality work stealing (StarPU's lws): released tasks land on the deque
/// of the worker that produced them; pops are LIFO locally (hot data) and
/// FIFO when stealing from the nearest non-empty neighbour. The paper
/// excludes lws from its comparison because it treats CPUs and GPUs as
/// identical resources — this implementation keeps that (deliberate) flaw.
class LwsScheduler final : public Scheduler {
 public:
  explicit LwsScheduler(SchedContext ctx) : Scheduler(std::move(ctx)) {
    queues_.resize(ctx_.platform->num_workers());
  }

  void push(TaskId t) override {
    std::size_t home =
        last_finisher_.valid() ? last_finisher_.index() : std::size_t{0};
    if (!worker_alive(ctx_, WorkerId{home})) home = first_live_worker();
    queues_[home].push_back(t);
    ++pending_;
    if (obs_enabled(ctx_)) {
      SchedEvent e = make_event(ctx_, SchedEventKind::Push, t);
      e.worker = WorkerId{home};
      e.node = ctx_.platform->worker(WorkerId{home}).node;
      e.heap_depth = static_cast<std::uint32_t>(queues_[home].size());
      ctx_.observer->record(e);
    }
  }

  std::optional<TaskId> pop(WorkerId w) override {
    const ArchType a = ctx_.platform->worker(w).arch;
    // Local pop: most recently produced task first.
    if (auto t = take(queues_[w.index()], a, /*lifo=*/true)) {
      --pending_;
      emit_pop(*t, w, /*steal_offset=*/0);
      return t;
    }
    // Steal: ring scan from the next worker, oldest task first.
    const std::size_t n = ctx_.platform->num_workers();
    for (std::size_t off = 1; off < n; ++off) {
      auto& victim = queues_[(w.index() + off) % n];
      if (auto t = take(victim, a, /*lifo=*/false)) {
        --pending_;
        emit_pop(*t, w, off);
        return t;
      }
    }
    return std::nullopt;
  }

  void on_task_end(TaskId, WorkerId w) override { last_finisher_ = w; }

  std::vector<TaskId> notify_worker_removed(WorkerId w) override {
    if (last_finisher_ == w) last_finisher_ = WorkerId{};
    // Move the dead worker's deque to a live home (steals would eventually
    // drain it, but a live home keeps the LIFO-hot ordering meaningful), and
    // purge tasks that no live worker can serve from every queue — e.g.
    // GPU-only tasks stranded in a CPU deque once the GPUs die.
    std::vector<TaskId> orphans;
    std::deque<TaskId> stranded;
    stranded.swap(queues_[w.index()]);
    const std::size_t home = first_live_worker();
    for (TaskId t : stranded) queues_[home].push_back(t);
    for (auto& q : queues_) {
      for (auto it = q.begin(); it != q.end();) {
        if (!task_has_live_worker(ctx_, *it)) {
          orphans.push_back(*it);
          --pending_;
          it = q.erase(it);
        } else {
          ++it;
        }
      }
    }
    return orphans;
  }

  [[nodiscard]] std::string name() const override { return "lws"; }
  [[nodiscard]] std::size_t pending_count() const override { return pending_; }
  [[nodiscard]] bool has_work_hint(WorkerId) const override { return pending_ > 0; }
  [[nodiscard]] bool node_has_work_hint(MemNodeId) const override { return pending_ > 0; }

 private:
  /// attempt = ring-scan offset: 0 is a local LIFO pop, >0 a steal.
  void emit_pop(TaskId t, WorkerId w, std::size_t steal_offset) {
    if (!obs_enabled(ctx_)) return;
    SchedEvent e = make_event(ctx_, SchedEventKind::Pop, t);
    e.worker = w;
    e.node = ctx_.platform->worker(w).node;
    e.attempt = static_cast<std::uint32_t>(steal_offset);
    e.heap_depth = static_cast<std::uint32_t>(queues_[w.index()].size());
    ctx_.observer->record(e);
  }

  [[nodiscard]] std::size_t first_live_worker() const {
    for (std::size_t wi = 0; wi < queues_.size(); ++wi)
      if (worker_alive(ctx_, WorkerId{wi})) return wi;
    return 0;  // everyone is dead; the queue is unreachable either way
  }

  std::optional<TaskId> take(std::deque<TaskId>& q, ArchType a, bool lifo) {
    if (lifo) {
      for (auto it = q.rbegin(); it != q.rend(); ++it) {
        if (ctx_.graph->can_exec(*it, a)) {
          const TaskId t = *it;
          q.erase(std::next(it).base());
          return t;
        }
      }
    } else {
      for (auto it = q.begin(); it != q.end(); ++it) {
        if (ctx_.graph->can_exec(*it, a)) {
          const TaskId t = *it;
          q.erase(it);
          return t;
        }
      }
    }
    return std::nullopt;
  }

  std::vector<std::deque<TaskId>> queues_;
  WorkerId last_finisher_;
  std::size_t pending_ = 0;
};

}  // namespace

std::unique_ptr<Scheduler> make_lws(SchedContext ctx) {
  return std::make_unique<LwsScheduler>(std::move(ctx));
}

}  // namespace mp
