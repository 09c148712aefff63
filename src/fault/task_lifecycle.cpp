#include "fault/task_lifecycle.hpp"

#include "common/check.hpp"
#include "obs/emit.hpp"

namespace mp {

TaskLifecycle::TaskLifecycle(const SchedContext& ctx, const FaultPlan& plan)
    : ctx_(ctx),
      retry_budget_(plan.retry_budget),
      attempts_(ctx.graph->num_tasks(), 0),
      state_(ctx.graph->num_tasks(), State::Idle),
      lost_(ctx.platform->num_workers(), 0),
      trace_(*ctx.graph, *ctx.platform),
      predicted_(ctx.graph->num_tasks(), 0.0) {
  if (!plan.empty()) injector_ = std::make_unique<FaultInjector>(plan, *ctx_.graph);
  for (const WorkerLossSpec& l : plan.worker_losses)
    MP_CHECK_MSG(l.worker.index() < ctx_.platform->num_workers(),
                 "fault plan kills a worker the platform does not have");
}

bool TaskLifecycle::attempt_fails(TaskId t, std::size_t attempt) const {
  return injector_ != nullptr && injector_->fail_attempt(t, attempt);
}

double TaskLifecycle::attempt_multiplier(TaskId t, std::size_t attempt) const {
  return injector_ != nullptr ? injector_->duration_multiplier(t, attempt) : 1.0;
}

void TaskLifecycle::emit(SchedEventKind kind, TaskId t, WorkerId w) const {
  if (!obs_enabled(ctx_)) return;
  SchedEvent e = make_event(ctx_, kind, t);
  e.worker = w;
  if (w.valid()) e.node = ctx_.platform->worker(w).node;
  if (t.valid()) e.attempt = static_cast<std::uint32_t>(attempts_[t.index()]);
  ctx_.observer->record(e);
}

void TaskLifecycle::straggled(TaskId t, WorkerId w, double multiplier) {
  if (multiplier == 1.0) return;
  ++stats_.stragglers_injected;
  emit(SchedEventKind::FaultStraggler, t, w);
}

std::size_t TaskLifecycle::popped(TaskId t, WorkerId w) {
  // An abandoned task, too, was popped before or was never to be handed out.
  MP_CHECK_MSG(state_[t.index()] == State::Idle, "task popped twice");
  MP_CHECK_MSG(ctx_.graph->can_exec(t, ctx_.platform->worker(w).arch),
               "scheduler mapped task to wrong arch");
  state_[t.index()] = State::Popped;
  return attempts_[t.index()];
}

bool TaskLifecycle::failed(TaskId t, WorkerId w) {
  ++stats_.failures_injected;
  const std::size_t failures = ++attempts_[t.index()];
  emit(SchedEventKind::FaultFailure, t, w);
  if (failures > retry_budget_) {
    abandon(t);
    return false;
  }
  requeued(t, w);
  return true;
}

void TaskLifecycle::requeued(TaskId t, WorkerId w) {
  MP_CHECK_MSG(state_[t.index()] == State::Popped, "requeued task was not popped");
  state_[t.index()] = State::Idle;
  ++stats_.retries;
  emit(SchedEventKind::Repush, t, w);
}

void TaskLifecycle::worker_lost(WorkerId w) {
  lost_[w.index()] = 1;
  ++stats_.workers_lost;
  emit(SchedEventKind::WorkerLost, TaskId{}, w);
}

void TaskLifecycle::abandon(TaskId t) {
  // The Abandoned state doubles as the visited set of the closure walk.
  std::vector<TaskId> frontier{t};
  while (!frontier.empty()) {
    const TaskId cur = frontier.back();
    frontier.pop_back();
    if (state_[cur.index()] == State::Abandoned) continue;
    state_[cur.index()] = State::Abandoned;
    ++stats_.tasks_abandoned;
    settled_.store(settled_.load() + 1);
    emit(SchedEventKind::TaskAbandoned, cur, WorkerId{});
    for (TaskId s : ctx_.graph->successors(cur)) frontier.push_back(s);
  }
}

void TaskLifecycle::completed(const TraceSegment& seg, double predicted) {
  MP_CHECK_MSG(lost_[seg.worker.index()] == 0, "segment finished on a worker after its loss");
  trace_.record(seg);
  predicted_[seg.task.index()] = predicted;
  settled_.store(settled_.load() + 1);
}

FaultStats TaskLifecycle::finish() {
  // With Trace::record's executed-once check, this means every task ran
  // unless some were abandoned.
  MP_CHECK_MSG(settled() == ctx_.graph->num_tasks(),
               "run ended with tasks neither executed nor abandoned");
  stats_.degraded = stats_.workers_lost > 0 || stats_.tasks_abandoned > 0;
  return stats_;
}

}  // namespace mp
