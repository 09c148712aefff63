#include <deque>

#include "common/check.hpp"
#include "obs/emit.hpp"
#include "sched/schedulers.hpp"

namespace mp {

namespace {

/// StarPU's "eager" policy: one central queue; the highest user priority is
/// served first, FIFO among equals. A worker skips tasks its architecture
/// cannot execute.
class EagerScheduler final : public Scheduler {
 public:
  explicit EagerScheduler(SchedContext ctx) : Scheduler(std::move(ctx)) {}

  void push(TaskId t) override {
    const std::int64_t prio = ctx_.graph->task(t).user_priority;
    // Insert before the first entry with strictly lower priority (stable).
    auto it = queue_.begin();
    while (it != queue_.end() && ctx_.graph->task(*it).user_priority >= prio) ++it;
    queue_.insert(it, t);
    if (obs_enabled(ctx_)) {
      SchedEvent e = make_event(ctx_, SchedEventKind::Push, t);
      e.prio = static_cast<double>(prio);
      e.heap_depth = static_cast<std::uint32_t>(queue_.size());
      ctx_.observer->record(e);
    }
  }

  std::optional<TaskId> pop(WorkerId w) override {
    const ArchType a = ctx_.platform->worker(w).arch;
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (ctx_.graph->can_exec(*it, a)) {
        const TaskId t = *it;
        queue_.erase(it);
        if (obs_enabled(ctx_)) {
          SchedEvent e = make_event(ctx_, SchedEventKind::Pop, t);
          e.worker = w;
          e.heap_depth = static_cast<std::uint32_t>(queue_.size());
          ctx_.observer->record(e);
        }
        return t;
      }
    }
    return std::nullopt;
  }

  std::vector<TaskId> notify_worker_removed(WorkerId /*w*/) override {
    // The central queue survives any loss; only tasks whose every capable
    // worker died must be surrendered (they would sit unpoppable forever).
    std::vector<TaskId> orphans;
    for (auto it = queue_.begin(); it != queue_.end();) {
      if (!task_has_live_worker(ctx_, *it)) {
        orphans.push_back(*it);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    return orphans;
  }

  [[nodiscard]] std::string name() const override { return "eager"; }
  [[nodiscard]] std::size_t pending_count() const override { return queue_.size(); }
  [[nodiscard]] bool has_work_hint(WorkerId) const override { return !queue_.empty(); }
  [[nodiscard]] bool node_has_work_hint(MemNodeId) const override { return !queue_.empty(); }

 private:
  std::deque<TaskId> queue_;
};

}  // namespace

std::unique_ptr<Scheduler> make_eager(SchedContext ctx) {
  return std::make_unique<EagerScheduler>(std::move(ctx));
}

}  // namespace mp
